"""Command-line workflows: outputs, exit codes, round trips."""

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from polyevp import cli
from polyevp.evp import FiniteMetricSpace
from polyevp.geometry import ConeHalfspaces
from polyevp.problemfile import build_problem, load_document


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def segment_doc():
    return {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1], ["1/2", "1/2"]]},
    }


@pytest.fixture
def chain3_doc():
    return {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1]]},
        "space": {
            "labels": ["a", "b", "c"],
            "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        },
        "map": {"a": [[4, 4]], "b": [[2, 2]], "c": [[0, 0]]},
        "x0": "a",
        "epsilon": 5,
        "mode": "plain",
    }


@pytest.fixture
def cross_doc():
    return {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1], [2, 1]]},
        "ranges": {
            "pieces": [
                {"vertices": [[0, 0]], "rays": [[1, 0]]},
                {"vertices": [[0, 0]], "rays": [[-1, 0]]},
                {"vertices": [[0, 0]], "rays": [[0, 1]]},
                {"vertices": [[0, 0]], "rays": [[0, -1]]},
            ]
        },
    }


class TestScalarize:
    def test_unit_value(self, tmp_path, segment_doc, capsys):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "phi = 1" in out and "agreement: ok" in out

    def test_negative_value(self, tmp_path, segment_doc, capsys):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point=-1,-1"]) == 0
        assert "phi = -2" in capsys.readouterr().out

    def test_origin(self, tmp_path, segment_doc, capsys):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "0,0"]) == 0
        assert "phi = 0" in capsys.readouterr().out

    def test_json_output_is_sorted(self, tmp_path, segment_doc, capsys):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "1,1", "--json"]) == 0
        payload = capsys.readouterr().out
        keys = list(json.loads(payload).keys())
        assert keys == sorted(keys)
        assert json.loads(payload)["phi"] == 1

    def test_bad_point_exits_2(self, tmp_path, segment_doc, capsys):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "1,banana"]) == 2

    def test_wrong_dimension_point_exits_2(self, tmp_path, segment_doc):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "1,1,1"]) == 2

    def test_invalid_file_exits_2(self, tmp_path):
        f = write(tmp_path / "broken.json", {"dimension": 2})
        assert cli.main(["scalarize", f, "--point", "1,1"]) == 2
        assert cli.main(["scalarize", str(tmp_path / "missing.json"),
                         "--point", "1,1"]) == 2

    def test_float_backend_flag(self, tmp_path, segment_doc, capsys):
        # there is one exact backend, so --backend is not an option at all
        f = write(tmp_path / "p.json", segment_doc)
        with pytest.raises(SystemExit) as e:
            cli.main(["scalarize", f, "--point", "1,1", "--backend", "float"])
        assert e.value.code == 2
        assert "phi =" not in capsys.readouterr().out

    def test_env_backend_override(self, tmp_path, segment_doc, monkeypatch, capsys):
        # EVP_BACKEND selects nothing: any value gives the exact answer
        f = write(tmp_path / "p.json", segment_doc)
        for value in ("float", "quantum"):
            monkeypatch.setenv("EVP_BACKEND", value)
            assert cli.main(["scalarize", f, "--point", "1,1"]) == 0
            assert "phi = 1" in capsys.readouterr().out

    def test_internal_error_exits_3(self, tmp_path, segment_doc, monkeypatch):
        from polyevp.scalarization import InternalConsistencyError

        def boom(*args, **kwargs):
            raise InternalConsistencyError("forced")

        monkeypatch.setattr(cli.scalarization, "evaluate", boom)
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "1,1"]) == 3

    def test_setting_overrides_reach_the_functional(
        self, tmp_path, segment_doc, monkeypatch
    ):
        seen = []
        evaluate_bisection = cli.scalarization.evaluate_bisection

        def spy(F, y, tol, t_max):
            seen.append((tol, t_max))
            return evaluate_bisection(F, y, tol, t_max)

        monkeypatch.setattr(cli.scalarization, "evaluate_bisection", spy)
        f = write(tmp_path / "p.json", segment_doc)
        argv = ["scalarize", f, "--point", "1,1", "--tol", "1/1000", "--t-max", "8"]
        assert cli.main(argv) == 0
        assert seen == [(Fraction(1, 1000), 8)]

    @pytest.mark.parametrize("flag", ["--tol", "--t-max"])
    def test_zero_denominator_setting_exits_2(
        self, tmp_path, segment_doc, flag, capsys
    ):
        f = write(tmp_path / "p.json", segment_doc)
        assert cli.main(["scalarize", f, "--point", "1,1", flag, "1/0"]) == 2
        assert "input error" in capsys.readouterr().out

    def test_unexpected_exception_is_internal_error_for_that_file(
        self, tmp_path, segment_doc, monkeypatch
    ):
        def boom(path, opts):
            raise RuntimeError("forced")

        monkeypatch.setitem(cli._COMMANDS, "scalarize", boom)
        f = write(tmp_path / "p.json", segment_doc)
        path, code, text = cli._worker(("scalarize", f, {}))
        assert (path, code) == (f, 3)
        assert text == "internal error: RuntimeError: forced"


class TestBisectionBracketBound:
    # H = {(1, 1)} and K = R^2_+, so phi(y) = max(y1, y2)
    DOC = {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1]]},
    }

    @pytest.mark.parametrize(
        "point, t_max, bisection",
        [
            # t_max itself is feasible although no power of two up to it is
            pytest.param("--point=3,3", "3", "3", id="phi-at-t-max"),
            # the lower bracket stops at -t_max, which is infeasible here
            pytest.param("--point=-5/2,-5/2", "3", "-5/2", id="lower-end-at-minus-t-max"),
            # phi = 5 > t_max: no feasible scale up to t_max agrees with phi
            pytest.param(
                "--point=5,5", "2", "+inf (unconfirmed at t_max)", id="phi-above-t-max"
            ),
        ],
    )
    def test_bracket_is_clamped_to_t_max(
        self, tmp_path, capsys, point, t_max, bisection
    ):
        f = write(tmp_path / "p.json", self.DOC)
        assert cli.main(["scalarize", f, point, "--t-max", t_max]) == 0
        out = capsys.readouterr().out
        assert f"bisection = {bisection}\n" in out and "agreement: ok" in out

    def test_phi_below_minus_t_max_names_a_probed_scale(self, tmp_path, capsys):
        f = write(tmp_path / "p.json", self.DOC)
        assert cli.main(["scalarize", f, "--point=-9,-9", "--t-max", "3"]) == 3
        assert capsys.readouterr().out == (
            "internal consistency failure: still feasible at scale -3; "
            "no lower bracket within t_max\n"
        )


def _read_rows_as(monkeypatch, corrupt):
    """Make every functional hand out corrupt(plus, minus) as its
    halfspaces, the honest rows of the cones over t*H + K and t*H - K."""
    honest = cli.scalarization.SeparationFunctional.halfspaces.func
    monkeypatch.setattr(
        cli.scalarization.SeparationFunctional,
        "halfspaces",
        property(lambda self: corrupt(*honest(self))),
    )


class TestBisectionOverCorruptRows:
    # for the segment, the cone over t*H - K is {t >= z1, t >= z2, t >= 0}

    def test_dropped_facet_makes_the_routes_disagree(
        self, tmp_path, segment_doc, monkeypatch, capsys
    ):
        def drop(plus, minus):
            rows = tuple(r for r in minus.rows if r != (-1, 0, 1))
            assert len(rows) == len(minus.rows) - 1
            return plus, ConeHalfspaces(rows)

        f = write(tmp_path / "p.json", segment_doc)
        _read_rows_as(monkeypatch, drop)
        # without t >= z1 the rows take (1, 0) at every t >= 0, so
        # bisection closes in on 0 while the LP route gives 1
        assert cli.main(["scalarize", f, "--point", "1,0"]) == 3
        out = capsys.readouterr().out
        assert "phi = 1" in out and "disagree" in out

    def test_row_a_generator_violates_is_dropped(
        self, tmp_path, segment_doc, monkeypatch, capsys
    ):
        f = write(tmp_path / "p.json", segment_doc)
        points = ["1,0", "-1,-1", "3,2", "-5,1", "0,0", "1/3,-2/7"]
        honest = []
        for pt in points:
            assert cli.main(["scalarize", f, f"--point={pt}", "--json"]) == 0
            honest.append(capsys.readouterr().out)

        def add(plus, minus):
            # minus the sum of the facet rows: negative at (1, 1, 1), a
            # generator of both cones; kept, it would empty the t >= 1 range
            return tuple(
                ConeHalfspaces(hs.rows + (tuple(-sum(c) for c in zip(*hs.rows)),))
                for hs in (plus, minus)
            )

        _read_rows_as(monkeypatch, add)
        for pt, out in zip(points, honest):
            assert cli.main(["scalarize", f, f"--point={pt}", "--json"]) == 0
            assert capsys.readouterr().out == out


def test_seven_dimensional_scalarize_finishes(tmp_path, capsys):
    # 20 generators in dimension 7: the cones whose rows bisection reads
    # have 466 and 515 facets, and the adjacency prefilter keeps their
    # double description well under a second
    rng = random.Random(1)
    l = [rng.randint(1, 3) for _ in range(7)]
    gens = []
    while len(gens) < 20:
        g = [rng.randint(-4, 4) for _ in range(7)]
        s = sum(a * b for a, b in zip(l, g))
        if s:
            gens.append(g if s > 0 else [-c for c in g])
    verts = [[a + b for a, b in zip(*rng.sample(gens, 2))] for _ in range(4)]
    doc = {"dimension": 7, "cone": {"generators": gens}, "H": {"vertices": verts}}
    f = write(tmp_path / "p.json", doc)
    point = ",".join(str(rng.randint(-10, 10)) for _ in range(7))
    start = time.perf_counter()
    code = cli.main(["scalarize", f, f"--point={point}", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["agreement"] is True
    assert payload["phi"] != "+inf"
    assert elapsed < 5.0


class TestUsageErrors:
    def test_backend_and_misplaced_settings_exit_2(
        self, tmp_path, segment_doc, chain3_doc, cross_doc, monkeypatch, capsys
    ):
        cert = str(tmp_path / "c.cert.json")
        commands = {
            "scalarize": ["scalarize", write(tmp_path / "s.json", segment_doc),
                          "--point", "1,1"],
            "diagnose": ["diagnose", write(tmp_path / "r.json", cross_doc)],
            "solve": ["solve", write(tmp_path / "c.json", chain3_doc),
                      "--certificate", cert],
            "verify": ["verify", str(tmp_path / "c.json"), cert],
        }
        bad = [argv + ["--backend", "exact"] for argv in commands.values()]
        bad += [
            commands[c] + [flag, "1"]
            for c in ("diagnose", "solve", "verify")
            for flag in ("--tol", "--t-max")
        ]
        for argv in bad:
            with pytest.raises(SystemExit) as e:
                cli.main(argv)
            assert e.value.code == 2, argv
        # the environment selects nothing
        monkeypatch.setenv("EVP_BACKEND", "quantum")
        for argv in commands.values():
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        # the problem file's own settings are still checked
        chain3_doc["tolerance"] = "1/0"
        f = write(tmp_path / "t.json", chain3_doc)
        assert cli.main(["solve", f, "--certificate", cert]) == 2
        assert capsys.readouterr().out.startswith('input error: "tolerance"')

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_dimension_exits_2(self, tmp_path, capsys, flag):
        # a valid one-dimensional file but for its dimension, a JSON boolean
        doc = {
            "dimension": flag,
            "cone": {"generators": [[1]]},
            "H": {"vertices": [[1]]},
            "ranges": {"pieces": [{"vertices": [[0]], "rays": [[1]]}]},
        }
        f = write(tmp_path / "b.json", doc)
        for argv in (["scalarize", f, "--point", "1"], ["diagnose", f]):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().out.startswith(
                'input error: "dimension" must be a positive integer'
            )


_CERTIFICATE = {"xbar": "c", "y0": [0, 0], "chain": ["a", "c"], "xi_trace": [0, 0]}


@pytest.mark.parametrize(
    "argv, problem, certificate, message",
    [
        pytest.param(
            ["scalarize", "{problem}", "--point", "1,1", "--tol", "0"], {}, None,
            "--tol and --t-max must be positive", id="tol-override-zero",
        ),
        pytest.param(
            ["solve", "{problem}", "{problem}", "--certificate", "{cert}"], {}, None,
            "--certificate needs a single input file", id="certificate-two-files",
        ),
        pytest.param(
            ["scalarize", "{problem}", "--point", "1,1"], {"tolerance": 0}, None,
            '"tolerance" and "t_max" must be positive', id="tolerance-zero",
        ),
        pytest.param(
            ["solve", "{problem}"], {"mode": {"scaled": 1}}, None,
            '"mode"."scaled" must be an object', id="scaled-not-object",
        ),
        pytest.param(
            ["solve", "{problem}"], {"mode": {"efficiency": [1]}}, None,
            '"mode"."efficiency" must be an object', id="efficiency-not-object",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"mode": {"efficiency": {"gamma": 1, "feasible": "a"}}}, None,
            '"mode"."efficiency"."feasible" must be a list of labels',
            id="feasible-not-labels",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"mode": {"efficiency": {"gamma": 1, "feasible": ["a", "a"]}}}, None,
            "feasible point 'a' is listed twice", id="feasible-repeated-start",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"mode": {"efficiency": {"gamma": 1, "feasible": ["a", "c", "c"]}}}, None,
            "feasible point 'c' is listed twice", id="feasible-repeated",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"mode": {"efficiency": {"gamma": 1, "feasible": ["a", "zz"]}}}, None,
            "feasible point 'zz' is not in the space", id="feasible-unknown",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"mode": {"efficiency": {"gamma": 1, "feasible": []}}}, None,
            "feasible set must not be empty", id="feasible-empty",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"mode": {"efficiency": {"gamma": 1, "feasible": ["b", "c"]}}}, None,
            "start point 'a' is not feasible", id="start-not-feasible",
        ),
        pytest.param(
            ["solve", "{problem}"], {"epsilon": 0}, None,
            "epsilon must be positive", id="epsilon-zero",
        ),
        pytest.param(
            ["solve", "{problem}"], {"mode": {"scaled": {"epsilon": 5, "lambda": 0}}},
            None, "scaled mode needs positive epsilon and lambda", id="lambda-zero",
        ),
        pytest.param(
            ["solve", "{problem}"], {"cone": {"generators": [5]}}, None,
            '"cone"."generators"[0]: expected a list of 2 numbers',
            id="generator-not-list",
        ),
        pytest.param(
            ["solve", "{problem}"], {"space": [0]}, None,
            '"space" must be an object with labels and dist', id="space-not-object",
        ),
        pytest.param(
            ["solve", "{problem}"], {"space": {"labels": [1, 2, 3], "dist": []}}, None,
            '"space"."labels" must be a list of strings', id="labels-not-strings",
        ),
        pytest.param(
            ["solve", "{problem}"], {"space": {"labels": ["a", "b", "c"], "dist": [[0]]}},
            None, '"space"."dist" must be a square matrix over labels',
            id="dist-not-square",
        ),
        pytest.param(
            ["solve", "{problem}"], {"map": [[4, 4]]}, None,
            '"map" must be an object from labels to vector lists', id="map-not-object",
        ),
        pytest.param(
            ["solve", "{problem}"],
            {"space": {"labels": ["a", "a"], "dist": [[0, 1], [1, 0]]}}, None,
            "duplicate labels in metric space", id="duplicate-labels",
        ),
        pytest.param(
            ["solve", "{problem}"], {"space": {"labels": [], "dist": []}}, None,
            "metric space needs at least one point", id="empty-space",
        ),
        # a certificate that is not an object stops at the document loader,
        # before certificate_from_document's own check
        pytest.param(
            ["verify", "{problem}", "{cert}"], {}, [_CERTIFICATE],
            "top level must be a JSON object", id="certificate-not-object",
        ),
        pytest.param(
            ["verify", "{problem}", "{cert}"], {},
            {k: v for k, v in _CERTIFICATE.items() if k != "chain"},
            'certificate is missing "chain"', id="certificate-missing-key",
        ),
        pytest.param(
            ["verify", "{problem}", "{cert}"], {}, {**_CERTIFICATE, "xbar": "z"},
            "certificate \"xbar\" 'z' is not a point of the space",
            id="certificate-unknown-xbar",
        ),
        pytest.param(
            ["verify", "{problem}", "{cert}"], {}, {**_CERTIFICATE, "chain": "a"},
            'certificate "chain" must be a list of labels',
            id="certificate-chain-not-list",
        ),
        pytest.param(
            ["verify", "{problem}", "{cert}"], {},
            {**_CERTIFICATE, "chain": ["a", "z"]},
            "certificate \"chain\" has unknown labels ['z']",
            id="certificate-unknown-chain-label",
        ),
        pytest.param(
            ["verify", "{problem}", "{cert}"], {}, {**_CERTIFICATE, "xi_trace": 0},
            'certificate "xi_trace" must be a list of numbers',
            id="certificate-trace-not-list",
        ),
        pytest.param(
            ["diagnose", "{problem}"], {"ranges": {"pieces": [5]}}, None,
            '"ranges"."pieces"[0]: expected an object with vertices',
            id="piece-not-object",
        ),
        # a falsy rays value is bad input, not "no rays": only [] is that
        *(
            pytest.param(
                ["diagnose", "{problem}"],
                {"ranges": {"pieces": [{"vertices": [[0, 0]], "rays": rays}]}}, None,
                '"ranges"."pieces"[0].rays: expected a nonempty list of vectors',
                id=f"rays-{name}",
            )
            for name, rays in (
                ("false", False), ("zero", 0), ("empty-string", ""),
                ("empty-object", {}), ("null", None),
            )
        ),
    ],
)
def test_malformed_input_exits_2(
    tmp_path, chain3_doc, capsys, argv, problem, certificate, message
):
    paths = {
        "problem": write(tmp_path / "p.json", {**chain3_doc, **problem}),
        "cert": str(tmp_path / "p.cert.json"),
    }
    if certificate is not None:
        write(tmp_path / "p.cert.json", certificate)
    assert cli.main([a.format(**paths) for a in argv]) == 2
    out = capsys.readouterr().out
    assert out.startswith("input error:") and message in out


@pytest.mark.parametrize(
    "argv, epsilon, literal",
    [
        pytest.param(["solve", "{problem}"], "1e3000000", "1e3000000", id="epsilon"),
        pytest.param(
            ["scalarize", "{problem}", "--point=1e2000000,1"], "5", "1e2000000",
            id="point",
        ),
        pytest.param(
            ["scalarize", "{problem}", "--point", "1,1", "--tol", "1e-2000000"], "5",
            "1e-2000000", id="tol",
        ),
    ],
)
def test_huge_decimal_exponent_exits_2(
    tmp_path, chain3_doc, capsys, argv, epsilon, literal
):
    # json.dumps cannot write 1e3000000 (it overflows a float), so the
    # epsilon literal is spliced into the text
    text = json.dumps({**chain3_doc, "epsilon": 0}).replace(
        '"epsilon": 0', f'"epsilon": {epsilon}'
    )
    (tmp_path / "p.json").write_text(text)
    problem = str(tmp_path / "p.json")
    assert cli.main([a.format(problem=problem) for a in argv]) == 2
    out = capsys.readouterr().out
    assert out.startswith("input error:") and repr(literal) in out
    # the reason is the exponent limit, not a claim that it is no number
    assert f"exceeds {sys.get_int_max_str_digits()} in magnitude" in out


@pytest.mark.parametrize(
    "dist, message",
    [
        pytest.param(
            [[0, 1, 2], [1, 0, "one"], [2, 1, 0]],
            "\"space\".\"dist\"[1][2]: 'one' is not a number", id="not-a-number",
        ),
        pytest.param(
            [[0, True, 2], [1, 0, 1], [2, 1, 0]],
            '"space"."dist"[0][1]: True is not a number', id="bool",
        ),
        pytest.param(
            [[0, 1, 2], [1, 0], [2, 1, 0]],
            '"space"."dist"[1]: has 2 entries, expected dimension 3', id="short-row",
        ),
        # the first bad row or entry in row-major order is the one named
        pytest.param(
            [[0, 1, 2], [1, 0, "x"], [2, 1]],
            "\"space\".\"dist\"[1][2]: 'x' is not a number", id="entry-before-row",
        ),
    ],
)
def test_bad_distance_entry_exits_2(tmp_path, chain3_doc, capsys, dist, message):
    doc = {**chain3_doc, "space": {"labels": ["a", "b", "c"], "dist": dist}}
    assert cli.main(["solve", write(tmp_path / "p.json", doc)]) == 2
    assert capsys.readouterr().out == f"input error: {message}\n"


def test_distance_literals_build_the_fraction_space(tmp_path, chain3_doc):
    doc = {
        **chain3_doc,
        "space": {
            "labels": ["a", "b", "c"],
            "dist": [[0, "2/4", 1], ["0.5", 0, "1/2"], [1, "0.50", 0]],
        },
    }
    space = build_problem(load_document(write(tmp_path / "p.json", doc))).space
    half = Fraction(1, 2)
    expected = FiniteMetricSpace(
        ("a", "b", "c"), ((0, half, 1), (half, 0, half), (Fraction(1), half, 0))
    )
    assert space == expected and hash(space) == hash(expected)
    assert space.dist == expected.dist
    assert space.d("a", "b") == half


class TestDiagnose:
    def test_axis_cross(self, tmp_path, cross_doc, capsys):
        f = write(tmp_path / "r.json", cross_doc)
        assert cli.main(["diagnose", f]) == 0
        out = capsys.readouterr().out
        assert "K-lower bounded: no" in out
        assert "k*(H)-lower bounded: no" in out
        assert "H-lower bounded: yes" in out

    def test_vee_json(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "cone": {"generators": [[1, 0], [0, 1]]},
            "H": {"vertices": [[1, 0], [0, 1]]},
            "ranges": {
                "pieces": [
                    {"vertices": [[0, 0]], "rays": [[1, 1]]},
                    {"vertices": [[0, 0]], "rays": [[1, -1]]},
                ]
            },
        }
        f = write(tmp_path / "r.json", doc)
        assert cli.main(["diagnose", f, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quasi_k_lower"] is False
        assert payload["kstar_witness"] == [1, 1]
        assert list(payload.keys()) == sorted(payload.keys())

    def test_unverified_shifted_set_reads_unknown(self, tmp_path, capsys):
        # a range running off along (-1, -1) is not H-lower bounded, and no
        # candidate translate misses it
        doc = {
            "dimension": 2,
            "cone": {"generators": [[1, 0], [0, 1]]},
            "H": {"vertices": [[1, 1]]},
            "ranges": {"pieces": [{"vertices": [[0, 0]], "rays": [[-1, -1]]}]},
        }
        f = write(tmp_path / "r.json", doc)
        assert cli.main(["diagnose", f]) == 0
        out = capsys.readouterr().out
        assert "H-lower bounded: unknown (no candidate translate verified)" in out

    def test_missing_ranges_exits_2(self, tmp_path, segment_doc):
        f = write(tmp_path / "r.json", segment_doc)
        assert cli.main(["diagnose", f]) == 2


class TestSolveVerifyRoundTrip:
    def test_round_trip(self, tmp_path, chain3_doc, capsys):
        f = write(tmp_path / "p.json", chain3_doc)
        cert = str(tmp_path / "cert.json")
        assert cli.main(["solve", f, "--certificate", cert]) == 0
        out = capsys.readouterr().out
        assert "xbar = c" in out
        doc = json.loads((tmp_path / "cert.json").read_text())
        assert doc["xbar"] == "c"
        assert doc["chain"] == ["a", "c"]
        assert doc["checks"] == {"a": True, "b": True}
        assert cli.main(["verify", f, cert]) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_default_certificate_path(self, tmp_path, chain3_doc):
        f = write(tmp_path / "p.json", chain3_doc)
        assert cli.main(["solve", f]) == 0
        assert (tmp_path / "p.cert.json").exists()

    def test_unwritable_certificate_path_exits_2(self, tmp_path, chain3_doc, capsys):
        f = write(tmp_path / "p.json", chain3_doc)
        cert = tmp_path / "no" / "such" / "x.json"
        assert cli.main(["solve", f, "--certificate", str(cert)]) == 2
        assert capsys.readouterr().out.startswith(f"input error: cannot write {cert}: ")

    def test_failed_self_check_exits_5(self, tmp_path, chain3_doc, capsys, monkeypatch):
        # b is not minimal: c lies below it, so the real self-check fails (b)
        forged = cli.evp.EVPCertificate(
            xbar="b", y0=(4, 4), chain=("a", "b"), xi_trace=(0, -2)
        )
        monkeypatch.setattr(cli.evp, "solve", lambda problem: forged)
        f = write(tmp_path / "p.json", chain3_doc)
        assert cli.main(["solve", f]) == 5
        assert capsys.readouterr().out == "self-verification FAILED: (b)\n"
        assert not (tmp_path / "p.cert.json").exists()

    def test_hypothesis_violation_exits_4(self, tmp_path, chain3_doc, capsys):
        chain3_doc["epsilon"] = 1
        f = write(tmp_path / "p.json", chain3_doc)
        assert cli.main(["solve", f]) == 4
        assert "hypothesis violated" in capsys.readouterr().out

    def test_forged_certificate_exits_1(self, tmp_path, chain3_doc, capsys):
        f = write(tmp_path / "p.json", chain3_doc)
        cert_path = tmp_path / "cert.json"
        assert cli.main(["solve", f, "--certificate", str(cert_path)]) == 0
        doc = json.loads(cert_path.read_text())
        doc["xbar"] = "b"
        doc["chain"] = ["a", "b"]
        doc["xi_trace"] = [0, -2]
        cert_path.write_text(json.dumps(doc))
        assert cli.main(["verify", f, str(cert_path)]) == 1
        assert "(b)" in capsys.readouterr().out

    def test_dimension_mismatch_certificate_exits_2(self, tmp_path, chain3_doc, capsys):
        f = write(tmp_path / "p.json", chain3_doc)
        cert_path = tmp_path / "cert.json"
        assert cli.main(["solve", f, "--certificate", str(cert_path)]) == 0
        doc = json.loads(cert_path.read_text())
        doc["y0"] = [4, 4, 4]
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["verify", f, str(cert_path)]) == 2

    def test_scaled_mode_file(self, tmp_path, chain3_doc, capsys):
        chain3_doc["mode"] = {"scaled": {"epsilon": 5, "lambda": 10}}
        f = write(tmp_path / "p.json", chain3_doc)
        cert = str(tmp_path / "cert.json")
        assert cli.main(["solve", f, "--certificate", cert, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["c"] is True
        assert cli.main(["verify", f, cert]) == 0

    def test_efficiency_mode_file(self, tmp_path, chain3_doc, capsys):
        chain3_doc["mode"] = {"efficiency": {"gamma": 1, "feasible": ["a", "b", "c"]}}
        f = write(tmp_path / "p.json", chain3_doc)
        cert = str(tmp_path / "cert.json")
        assert cli.main(["solve", f, "--certificate", cert, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["c"] is True
        assert payload["checks"]["t66c"] is True
        assert cli.main(["verify", f, cert]) == 0

    def test_solve_json_output_sorted(self, tmp_path, chain3_doc, capsys):
        f = write(tmp_path / "p.json", chain3_doc)
        assert cli.main(["solve", f, "--json"]) == 0
        payload = capsys.readouterr().out
        keys = list(json.loads(payload).keys())
        assert keys == sorted(keys)


class TestBatch:
    def test_multiple_files_need_batch(self, tmp_path, chain3_doc):
        f1 = write(tmp_path / "p1.json", chain3_doc)
        f2 = write(tmp_path / "p2.json", chain3_doc)
        assert cli.main(["solve", f1, f2]) == 2

    def test_batch_solve(self, tmp_path, chain3_doc, capsys):
        f1 = write(tmp_path / "p1.json", chain3_doc)
        bad = dict(chain3_doc)
        bad["epsilon"] = 1
        f2 = write(tmp_path / "p2.json", bad)
        code = cli.main(["solve", f1, f2, "--batch"])
        out = capsys.readouterr().out
        assert code == 4  # worst exit across the batch
        assert (tmp_path / "p1.cert.json").exists()
        assert "=== " in out

    def test_batch_diagnose(self, tmp_path, cross_doc, capsys):
        f1 = write(tmp_path / "r1.json", cross_doc)
        f2 = write(tmp_path / "r2.json", cross_doc)
        assert cli.main(["diagnose", f1, f2, "--batch"]) == 0


def test_parser_is_built_once_per_process(
    tmp_path, segment_doc, cross_doc, chain3_doc, capsys, monkeypatch
):
    seg = write(tmp_path / "seg.json", segment_doc)
    cross = write(tmp_path / "cross.json", cross_doc)
    chain = write(tmp_path / "chain.json", chain3_doc)
    cert = str(tmp_path / "cert.json")
    argvs = [
        ["scalarize", seg, "--point", "1,1"],
        ["diagnose", cross, "--json"],
        ["solve", chain, "--certificate", cert],
        ["verify", chain, cert, "--json"],
        ["scalarize", seg, "--point=-1,-1", "--json"],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.__wrapped__()
    per_build = len(built)  # the main parser and one per command
    built.clear()
    cli._build_parser.cache_clear()
    rounds = []
    for _ in range(3):
        rounds.append([(cli.main(argv), capsys.readouterr().out) for argv in argvs])
    assert len(built) == per_build
    assert rounds[0] == rounds[1] == rounds[2]
    assert [code for code, _ in rounds[0]] == [0] * len(argvs)
    assert "phi = 1" in rounds[0][0][1] and '"phi": -2' in rounds[0][4][1]
    # the kept parser reads every command line as a fresh one does
    fresh = cli._build_parser.__wrapped__()
    for argv in argvs:
        assert cli._build_parser().parse_args(argv) == fresh.parse_args(argv)
