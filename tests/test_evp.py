"""Descent solver: pre-order laws, worked chain instance, certificates."""

import dataclasses
import gc
import itertools
import json
import math
import random
import string
import weakref
from fractions import Fraction

import pytest

from polyevp import cli, evp, geometry, scalarization
from polyevp.evp import (
    _CheckedRelation,
    EfficiencyMode,
    EVPCertificate,
    EVPProblem,
    FiniteMetricSpace,
    HypothesisViolatedError,
    PlainMode,
    ScaledMode,
    coradiant_escape_check,
    dominates,
    lower_section,
    solve,
    verify_certificate,
)
from polyevp.geometry import (
    ConeGen,
    ConeHalfspaces,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidConfigurationError,
    Polytope,
    scaled_H_minus_K_contains,
    scaled_H_plus_K_contains,
    zero_notin_H_plus_K,
)
from polyevp.lp_core import solve as lp_solve
from polyevp.problemfile import build_problem
from polyevp.scalarization import (
    ExtendedReal,
    SeparationFunctional,
    evaluate,
    evaluate_bisection,
)
from polyevp.rational import ratio, vec_sub

from conftest import (
    ContainsLog,
    ae_efficient,
    brute_force_minimal_set,
    condition_ii_witness,
    is_pointed,
    make_chain3,
    map_table,
    problem_to_document,
    rand_cone_polytope,
    rand_metric_space,
    rand_problem,
)

_TIGHT_TRACE_DOC = {
    "dimension": 2,
    "cone": {"generators": [[5, "8/3"]]},
    "H": {"vertices": [["10/3", "16/9"]]},
    "space": {
        "labels": ["p0", "p1", "p2", "p3", "p4", "p5", "p6"],
        "dist": [
            [0, "8/3", 2, "13/6", 1, "4/3", "5/3"],
            ["8/3", 0, 2, "3/2", 2, "5/2", 1],
            [2, 2, 0, 2, 3, 1, "5/2"],
            ["13/6", "3/2", 2, 0, "19/6", 1, "1/2"],
            [1, 2, 3, "19/6", 0, "7/3", "8/3"],
            ["4/3", "5/2", 1, 1, "7/3", 0, "3/2"],
            ["5/3", 1, "5/2", "1/2", "8/3", "3/2", 0],
        ],
    },
    "map": {
        "p0": [["17/2", -9]],
        "p1": [[-1, 0]],
        "p2": [[-6, "11/3"]],
        "p3": [[-5, "29/3"], ["-17/2", -2]],
        "p4": [[9, 7], [-10, 0], [-3, "1/2"]],
        "p5": [["3/2", "19/2"], ["-7/2", "25/4"]],
        "p6": [["53/9", "283/54"]],
    },
    "x0": "p6",
    "epsilon": 4,
    "mode": "plain",
}


def _two_late_triangles(n: int = 40):
    """n points 20 apart but for two triangles with sides 8, 8 and 20.
    {34, 38, 39} fails only as (38, 34) and (39, 34), and {35, 36, 37}
    as (35, 36) and (37, 36): the pair scan meets (38, 34) in row 34,
    and the first failure (35, 36, 37) in row 35."""
    d = [[20 * (i != j) for j in range(n)] for i in range(n)]
    for a, b in [(34, 38), (34, 39), (35, 36), (36, 37)]:
        d[a][b] = d[b][a] = 8
    return tuple(map(tuple, d))


class TestMetricSpace:
    def test_validates_triangle_inequality(self):
        with pytest.raises(InvalidConfigurationError):
            FiniteMetricSpace(("a", "b", "c"), ((0, 1, 9), (1, 0, 1), (9, 1, 0)))

    def test_validates_symmetry_and_diagonal(self):
        with pytest.raises(InvalidConfigurationError):
            FiniteMetricSpace(("a", "b"), ((0, 1), (2, 0)))
        with pytest.raises(InvalidConfigurationError):
            FiniteMetricSpace(("a", "b"), ((1, 1), (1, 0)))
        with pytest.raises(InvalidConfigurationError):
            FiniteMetricSpace(("a", "b"), ((0, 0), (0, 0)))

    @pytest.mark.parametrize(
        "dist, message",
        [
            # row a holds one 0, off the diagonal, and equals its column
            (((5, 0), (0, 0)), "nonzero self-distance at 'a'"),
            (((0, 2, 0), (2, 0, 1), (0, 1, 3)), "distinct points 'a', 'c' at distance 0"),
        ],
    )
    def test_entry_failure_names_first_entry(self, dist, message):
        assert self._assert_same_verdict(tuple("abc"[: len(dist)]), dist) == message

    @staticmethod
    def _brute_force_error(labels, dist):
        """The metric axioms by a plain Fraction triple loop: the first
        failure's message in (i, j, k) order, or None."""
        d = [[Fraction(x) for x in row] for row in dist]
        n = len(labels)
        for i in range(n):
            if d[i][i] != 0:
                return f"nonzero self-distance at {labels[i]!r}"
            for j in range(n):
                if d[i][j] != d[j][i]:
                    return f"asymmetric distances between {labels[i]!r} and {labels[j]!r}"
                if i != j and d[i][j] <= 0:
                    return f"distinct points {labels[i]!r}, {labels[j]!r} at distance {d[i][j]}"
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if d[i][k] > d[i][j] + d[j][k]:
                        return (
                            "triangle inequality fails on "
                            f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})"
                        )
        return None

    def _assert_same_verdict(self, labels, dist):
        expected = self._brute_force_error(labels, dist)
        try:
            space = FiniteMetricSpace(labels, dist)
        except InvalidConfigurationError as e:
            assert str(e) == expected
        else:
            assert expected is None
            assert [[space.d(a, b) for b in labels] for a in labels] == [
                [Fraction(x) for x in row] for row in dist
            ]
        return expected

    def test_integer_check_matches_fraction_triple_loop(self):
        rng = random.Random(2024)
        verdicts = {}
        for trial in range(300):
            n = rng.randint(2, 8)
            labels = tuple(f"p{i}" for i in range(n))
            d = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d[i][j] = d[j][i] = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            if trial % 3:  # shortest-path closure: a metric to edit
                for k in range(n):
                    for i in range(n):
                        for j in range(n):
                            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
            lcm = math.lcm(*(x.denominator for row in d for x in row))
            i, j = rng.sample(range(n), 2)
            edit = rng.choice(["none", "triangle", "symmetry", "positive", "diagonal"])
            if edit == "triangle" and n > 2:
                k = rng.choice([x for x in range(n) if x not in (i, j)])
                d[i][j] = d[j][i] = d[i][k] + d[k][j] + Fraction(1, lcm)
            elif edit == "symmetry":
                d[i][j] += Fraction(1, lcm)
            elif edit == "positive":
                d[i][j] = d[j][i] = Fraction(-rng.randint(0, 2), rng.randint(1, 12))
            elif edit == "diagonal":
                d[i][i] = Fraction(rng.choice([-1, 1]), lcm)
            message = self._assert_same_verdict(labels, tuple(map(tuple, d)))
            kind = message.split(" ")[0] if message else None
            verdicts[edit, kind] = verdicts.get((edit, kind), 0) + 1
        # every edit is seen breaking its own rule, and closed matrices pass
        for edit, kind in [
            ("triangle", "triangle"), ("symmetry", "asymmetric"),
            ("positive", "distinct"), ("diagonal", "nonzero"), ("none", None),
        ]:
            assert verdicts.get((edit, kind), 0) > 5, verdicts

    @staticmethod
    def _edited(rng, d, edit):
        """d, an integer matrix, with one rule broken by ``edit``."""
        n = len(d)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if edit == "triangle" and n > 2:
            k = rng.choice([x for x in range(n) if x not in (i, j)])
            d[i][j] = d[j][i] = d[i][k] + d[k][j] + 1
        elif edit == "symmetry" and n > 1:
            d[i][j] += 1
        elif edit == "positive" and n > 1:
            d[i][j] = d[j][i] = -rng.randint(0, 2)
        elif edit == "diagonal":
            d[i][i] = rng.choice([-1, 1])
        return d

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_packed_check_matches_triple_loop_on_wide_fields(self, n):
        # entries up to 10**30 with small ones next to them, so rows pack
        # into fields of very different widths; line metrics make many
        # triangles tight, where a one-unit edit is the whole violation
        rng = random.Random(n)
        labels = tuple(f"p{i}" for i in range(n))
        verdicts = {}
        for trial in range(40 if n < 40 else 12):
            tops = rng.sample([9, 10**6, 2**62, 10**30], 2)
            if trial % 2:
                xs = [rng.randint(0, rng.choice(tops)) for _ in range(n)]
                xs = list(dict.fromkeys(xs))  # distinct points
                while len(xs) < n:
                    xs.append(xs[-1] + 1 + rng.randint(0, 9))
                d = [[abs(a - b) for b in xs] for a in xs]
            else:
                d = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        d[i][j] = d[j][i] = rng.randint(1, rng.choice(tops))
                for k in range(n):
                    for i in range(n):
                        dik = d[i][k]
                        d[i] = [min(a, dik + b) for a, b in zip(d[i], d[k])]
            edit = ["none", "triangle", "symmetry", "positive", "diagonal"][trial % 5]
            d = self._edited(rng, d, edit)
            # the same value as an int, a "p/q" string or a Fraction
            den = rng.choice([1, 7])
            dist = tuple(
                tuple(
                    rng.choice([Fraction(x, den), f"{x}/{den}"] + [x] * (den == 1))
                    for x in row
                )
                for row in d
            )
            message = self._assert_same_verdict(labels, dist)
            kind = message.split(" ")[0] if message else None
            verdicts[edit, kind] = verdicts.get((edit, kind), 0) + 1
        expected = {("none", None), ("diagonal", "nonzero")}
        if n > 1:
            expected |= {("symmetry", "asymmetric"), ("positive", "distinct")}
        if n > 2:
            expected |= {("triangle", "triangle")}
        assert expected <= set(verdicts), verdicts

    _PINNED_TRIPLES = [
        # (b, a) fails at c while (a, b) holds; (b, d) and (c, d)
        # fail later in row-major order
        (((0, 2, 2, 2), (2, 0, 6, 2), (2, 6, 0, 1), (2, 2, 1, 0)), "('b', 'a', 'c')"),
        # the first unordered pair that fails, {a, b}, fails only as
        # (b, a); the row-major first failure is (a, d, c), and (b, a),
        # (c, d) and (d, a) fail after it
        (((0, 2, 5, 1), (2, 0, 4, 4), (5, 4, 0, 3), (1, 4, 3, 0)), "('a', 'd', 'c')"),
        # the least pair seen so far, (38, 34), gives way to a later one
        # in the last rows; labels a-z then A-Z, so 35 is 'J'
        (_two_late_triangles(), "('J', 'K', 'L')"),
    ]

    @pytest.mark.parametrize("dist, triple", _PINNED_TRIPLES)
    def test_triangle_failure_in_one_direction_reports_first_triple(self, dist, triple):
        labels = tuple(string.ascii_letters[: len(dist)])
        expected = self._assert_same_verdict(labels, dist)
        assert expected == f"triangle inequality fails on {triple}"

    @pytest.mark.parametrize("dist, triple", _PINNED_TRIPLES)
    @pytest.mark.parametrize("factor", [Fraction(1, 3), 2**62, 10**30])
    def test_pinned_triples_at_other_scales(self, dist, triple, factor):
        # every triangle keeps its sign under a positive factor, and at
        # 10**30 the rows pack into ~100-bit fields
        scaled = tuple(tuple(str(factor * x) for x in row) for row in dist)
        labels = tuple(string.ascii_letters[: len(dist)])
        expected = self._assert_same_verdict(labels, scaled)
        assert expected == f"triangle inequality fails on {triple}"

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (True, TypeError, "True is not a number"),
            ([1], TypeError, "[1] is not a number"),
            (float("nan"), ValueError, "nan is not a number"),
            ("1/0", ValueError, "'1/0' is not a number"),
        ],
        ids=["true", "list", "nan", "zero-denominator"],
    )
    def test_bad_token_fails_as_it_would_alone(self, bad, error, message):
        # a 1 read first must not answer for True, which hashes like 1
        for dist in [((0, 1), (bad, 0)), ((0, bad), (1, 0)), ((0, "1"), (bad, 0))]:
            with pytest.raises(error) as exc:
                FiniteMetricSpace(("a", "b"), dist)
            assert str(exc.value) == message

    def test_equal_tokens_give_one_matrix(self):
        spaces = [
            FiniteMetricSpace(("a", "b"), ((0, x), (y, 0)))
            for x, y in itertools.product([1, "1", "2/2", "1.0"], repeat=2)
        ]
        assert all(s == spaces[0] for s in spaces)
        assert spaces[0].matrix == ((0, 1), (1, 0)) and spaces[0].den == 1

    def test_ratio_runs_once_per_distinct_token(self, monkeypatch):
        seen = []

        def counted(x):
            seen.append(x)
            return ratio(x)

        monkeypatch.setattr(evp, "ratio", counted)
        labels = tuple("abcd")
        dist = (
            (0, "1/2", 1, Fraction(3, 2)),
            ("1/2", 0, "1/2", 1),
            (1, "1/2", 0, 0.5),
            (Fraction(3, 2), 1, 0.5, 0),
        )
        space = FiniteMetricSpace(labels, dist)
        assert space.matrix[0] == (0, 1, 2, 3) and space.den == 2
        # 0, "1/2" and 1 once each; Fractions and floats every time
        assert sorted(map(str, seen)) == sorted(
            ["0", "1/2", "1", "3/2", "3/2", "0.5", "0.5"]
        )

    def test_integer_check_on_one_point(self):
        for dist in [(0,), ("1/3",), (-1,), ("0/7",)]:
            self._assert_same_verdict(("only",), (dist,))
        assert FiniteMetricSpace(("only",), ((0,),)).d("only", "only") == 0

    def test_random_generator_produces_valid_spaces(self):
        rng = random.Random(1)
        for _ in range(10):
            rand_metric_space(rng, rng.randint(2, 8))  # validation is in the ctor

    def test_empty_images_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            map_table({"a": []})


class TestDominance:
    def test_reflexive_on_chain3(self, chain3_eps5):
        for x in ("a", "b", "c"):
            assert dominates(chain3_eps5, x, x)

    def test_closer_point_dominates_start(self, chain3_eps5):
        assert dominates(chain3_eps5, "b", "a")

    def test_start_does_not_dominate_bottom(self, chain3_eps5):
        assert not dominates(chain3_eps5, "a", "c")

    def test_lower_sections(self, chain3_eps5):
        assert lower_section(chain3_eps5, "a") == ("a", "b", "c")
        assert lower_section(chain3_eps5, "c") == ("c",)

    def test_isolated_point_has_singleton_section(self):
        space = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        table = map_table({"a": [(0, 0)], "b": [(50, 50)]})
        p = EVPProblem(
            space=space, f=table, K=ConeGen(2, ((1, 0), (0, 1))),
            H=Polytope(2, ((1, 1),)), x0="a", epsilon=100,
        )
        assert lower_section(p, "a") == ("a",)

    def test_unknown_label_raises(self, chain3_eps5):
        with pytest.raises(ValueError):
            dominates(chain3_eps5, "z", "a")

    def test_preorder_laws_on_random_problems(self):
        rng = random.Random(13)
        for _ in range(12):
            p = rand_problem(rng, max_points=5, require_witness=False)
            labels = p.space.labels
            for x in labels:
                assert dominates(p, x, x)
            for a in labels:
                for b in labels:
                    for c in labels:
                        if dominates(p, b, a) and dominates(p, c, b):
                            assert dominates(p, c, a)


class TestDominanceRoutes:
    """The solver's `dominates`, the verifier's `_CheckedRelation` and
    membership LPs alone decide the pre-order alike."""

    @staticmethod
    def _assert_routes_agree(p):
        rel = _CheckedRelation(p)
        answers = set()
        for xp, x in itertools.product(p.space.labels, repeat=2):
            lp = _lp_dominates(p, xp, x)
            assert dominates(p, xp, x) == lp == rel.dominates(xp, x), (xp, x)
            answers.add(lp)
        return answers

    def test_scaled_problems_with_fractional_scale_and_metric(self):
        # eps/lam > 1 and a metric denominator > 1, so the unit bounds
        # carry both, and each pair multiplies them by its integer entry
        rng = random.Random(29)
        answers, drawn, fractional = set(), 0, 0
        while drawn < 20:
            lam = Fraction(rng.randint(2, 6), 7)
            p = rand_problem(
                rng, max_points=6, max_images=3,
                mode_factory=lambda eps: ScaledMode(lam),
                require_witness=False,
            )
            if p.space.den == 1:
                continue
            assert p.scale > 1
            answers |= self._assert_routes_agree(p)
            fractional += p.scale.denominator > 1
            drawn += 1
        assert answers == {True, False} and fractional

    @pytest.mark.parametrize(
        "mode, scale",
        [(PlainMode(), 1), (ScaledMode(4), Fraction(1, 2))],
        ids=["plain", "scaled"],
    )
    def test_tight_step(self, mode, scale):
        p = _tight_step_problem(mode, scale)
        assert p.space.den == 2
        assert self._assert_routes_agree(p) == {True, False}
        assert dominates(p, "b", "a") and not dominates(p, "a", "b")


class TestHypothesisCheck:
    def test_small_eps_has_no_witness(self, chain3_eps1):
        assert condition_ii_witness(chain3_eps1) is None

    def test_large_eps_witnessed_by_start_image(self, chain3_eps5):
        assert condition_ii_witness(chain3_eps5) == (4, 4)

    def test_huge_eps_always_works_on_singletons(self):
        p = make_chain3(100)
        assert condition_ii_witness(p) == (4, 4)

    def test_efficiency_mode_scope_is_the_feasible_set(self):
        # z is feasible but not below x0, since d(x0, z) = 5 is too far,
        # yet (0,0) - (-1,-1) = (1,1) lies in eps*H + K
        space = FiniteMetricSpace(("x0", "z"), ((0, 5), (5, 0)))
        plain = EVPProblem(
            space=space, f=map_table({"x0": [(0, 0)], "z": [(-1, -1)]}),
            K=ConeGen(2, ((1, 0), (0, 1))), H=Polytope(2, ((1, 1),)),
            x0="x0", epsilon=1,
        )
        assert lower_section(plain, "x0") == ("x0",)
        assert condition_ii_witness(plain) == (0, 0)
        assert verify_certificate(plain, solve(plain)).passed
        efficiency = dataclasses.replace(plain, mode=EfficiencyMode(1))
        assert condition_ii_witness(efficiency) is None
        with pytest.raises(HypothesisViolatedError) as exc:
            solve(efficiency)
        assert exc.value.blocking == {(0, 0): ("z", (-1, -1))}


def _fake_scorer(scores):
    """A stand-in for `phi_from_rows` that returns ``scores`` in order,
    None as +inf."""
    values = iter(scores)

    def phi(*args):
        v = next(values)
        return ExtendedReal.plus_infinity() if v is None else ExtendedReal.finite(v)

    return phi


class TestSolve:
    def test_chain3_descends_to_bottom(self, chain3_eps5):
        cert = solve(chain3_eps5)
        assert cert.xbar == "c"
        assert cert.chain == ("a", "c")
        assert cert.xi_trace == (0, -4)
        assert cert.y0 == (4, 4)

    def test_chain3_certificate_verifies(self, chain3_eps5):
        report = verify_certificate(chain3_eps5, solve(chain3_eps5))
        assert report.passed
        assert report.a and report.b
        assert report.c is None and report.coradiant_gap is None

    def test_small_eps_raises_with_blocking_details(self, chain3_eps1):
        with pytest.raises(HypothesisViolatedError) as exc:
            solve(chain3_eps1)
        assert exc.value.blocking  # names the reaching point and image

    def test_single_point_space(self):
        space = FiniteMetricSpace(("only",), ((0,),))
        table = map_table({"only": [(1, 2)]})
        p = EVPProblem(
            space=space, f=table, K=ConeGen(2, ((1, 0), (0, 1))),
            H=Polytope(2, ((1, 1),)), x0="only", epsilon=3,
        )
        cert = solve(p)
        assert cert.xbar == "only" and cert.chain == ("only",)
        assert verify_certificate(p, cert).passed

    def test_descent_trace_is_strict_with_step_gaps(self, chain3_eps5):
        cert = solve(chain3_eps5)
        for (z1, v1), (z2, v2) in zip(
            zip(cert.chain, cert.xi_trace), zip(cert.chain[1:], cert.xi_trace[1:])
        ):
            assert v1 - v2 >= chain3_eps5.scale * chain3_eps5.space.d(z1, z2)

    def test_float_certificate_trace_is_exact(self):
        # draw 9 of rand_problem(random.Random(99), max_points=10,
        # max_images=3); floating-point scoring once put 2.6666666666666665
        # where the exact drop along the chain is 8/3 = d(p6, p4), a tight
        # step that only exact scores pass
        p = build_problem(_TIGHT_TRACE_DOC)
        cert = solve(p)
        assert cert.chain == ("p6", "p4")
        assert cert.xi_trace == (0, Fraction(-8, 3))
        assert verify_certificate(p, cert).passed

    def test_problem_validates_its_scalarizer_once(self, monkeypatch):
        built = []
        post_init = SeparationFunctional.__post_init__

        def counted(sf):
            built.append(sf)
            post_init(sf)

        monkeypatch.setattr(SeparationFunctional, "__post_init__", counted)
        p = make_chain3(5)
        assert verify_certificate(p, solve(p)).passed
        assert len(built) == 1

    @pytest.mark.parametrize(
        "mode, scale",
        [(PlainMode(), 1), (ScaledMode(4), Fraction(1, 2))],
        ids=["plain", "scaled"],
    )
    def test_tight_descent_step(self, mode, scale):
        # the step a -> b drops the potential by exactly scale * d(a, b)
        p = _tight_step_problem(mode, scale)
        assert p.scale == scale
        cert = solve(p)
        assert cert.chain == ("a", "b")
        assert cert.xi_trace[0] - cert.xi_trace[1] == scale * p.space.d("a", "b")
        assert verify_certificate(p, cert).passed
        # a claimed value moved toward its neighbour breaks the trace
        for i, j in ((0, 1), (1, 0)):
            trace = list(cert.xi_trace)
            trace[i] += Fraction(1, 10**12) * (1 if trace[j] > trace[i] else -1)
            forged = EVPCertificate(
                xbar=cert.xbar, y0=cert.y0, chain=cert.chain, xi_trace=tuple(trace)
            )
            assert "(trace)" in verify_certificate(p, forged).failures

    @pytest.mark.parametrize(
        "scores, message",
        [
            pytest.param(
                (1, 1, 1),
                "potential minimum 1 over the start section violates the [-eps, 0] bound",
                id="start-minimum-above-zero",
            ),
            pytest.param(
                (0, 0, 0),
                "'a' is its own section argmin but the section has 3 points",
                id="start-is-argmin",
            ),
            pytest.param(
                (0, Fraction(-1, 10), Fraction(-1, 5)),
                "descent step 'a' -> 'c' dropped the potential by less than "
                "scale * distance",
                id="short-step",
            ),
            pytest.param(
                (None, -1, -2), "chain point scored +inf", id="infinite-chain-point"
            ),
        ],
    )
    def test_descent_self_checks(
        self, chain3_eps5, tmp_path, monkeypatch, capsys, scores, message
    ):
        # ``scores`` are the potentials of a, b and c, each scored once
        monkeypatch.setattr(evp, "phi_from_rows", _fake_scorer(scores))
        with pytest.raises(InternalConsistencyError) as exc:
            solve(chain3_eps5)
        assert str(exc.value) == message
        # the solve command reports the failure with exit code 3
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem_to_document(chain3_eps5)))
        monkeypatch.setattr(evp, "phi_from_rows", _fake_scorer(scores))
        assert cli.main(["solve", str(path)]) == 3
        assert capsys.readouterr().out == f"internal consistency failure: {message}\n"

    def test_dominance_memo_dies_with_the_problem(self):
        p = make_chain3(5)
        assert verify_certificate(p, solve(p)).passed
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None


class TestForgedCertificates:
    def test_endpoint_above_the_start_fails_a(self):
        # b's image sits above a's, so b is not below a, and a is below b
        space = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        table = map_table({"a": [(0, 0)], "b": [(5, 5)]})
        p = EVPProblem(
            space=space, f=table, K=ConeGen(2, ((1, 0), (0, 1))),
            H=Polytope(2, ((1, 1),)), x0="a", epsilon=5,
        )
        forged = EVPCertificate(xbar="b", y0=(0, 0), chain=("a", "b"), xi_trace=(0, 5))
        report = verify_certificate(p, forged)
        assert (report.a, report.c, report.coradiant_gap) == (False, None, None)
        assert report.failures == ("(a)", "(b)", "(chain)")

    def test_endpoint_beyond_lambda_fails_c(self):
        p = make_chain3(5, ScaledMode(1))
        forged = EVPCertificate(xbar="c", y0=(4, 4), chain=("a", "c"), xi_trace=(0, -4))
        report = verify_certificate(p, forged)
        assert report.c is False and report.coradiant_gap is None
        assert report.failures == ("(a)", "(c)", "(chain)")

    def test_step_inside_the_coradiant_set_fails_the_gap(self):
        # d(a, c) * (1, 1) = (2, 2) lies in (eps/gamma) * H + K = (1, 1) + K
        p = make_chain3(1, EfficiencyMode(1))
        forged = EVPCertificate(xbar="c", y0=(4, 4), chain=("a", "c"), xi_trace=(0, -4))
        report = verify_certificate(p, forged)
        assert report.coradiant_gap is False and report.c is False
        assert report.failures == ("(c)", "(coradiant gap)", "(witness)")

    def test_wrong_endpoint_fails_minimality(self, chain3_eps5):
        good = solve(chain3_eps5)
        forged = EVPCertificate(
            xbar="b", y0=good.y0, chain=("a", "b"),
            xi_trace=(Fraction(0), Fraction(-2)),
        )
        report = verify_certificate(chain3_eps5, forged)
        assert not report.passed
        assert "(b)" in report.failures

    def test_broken_chain_is_caught(self, chain3_eps5):
        good = solve(chain3_eps5)
        forged = EVPCertificate(
            xbar="c", y0=good.y0, chain=("a", "a", "c"),
            xi_trace=(Fraction(0), Fraction(0), Fraction(-4)),
        )
        report = verify_certificate(chain3_eps5, forged)
        assert "(chain)" in report.failures

    def test_wrong_trace_is_caught(self, chain3_eps5):
        good = solve(chain3_eps5)
        forged = EVPCertificate(
            xbar="c", y0=good.y0, chain=good.chain,
            xi_trace=(Fraction(0), Fraction(-3)),
        )
        report = verify_certificate(chain3_eps5, forged)
        assert "(trace)" in report.failures

    def test_non_witness_y0_is_caught(self, chain3_eps5):
        good = solve(chain3_eps5)
        forged = EVPCertificate(
            xbar="c", y0=(0, 0), chain=good.chain, xi_trace=good.xi_trace
        )
        report = verify_certificate(chain3_eps5, forged)
        assert "(witness)" in report.failures

    def test_witness_reached_from_below_the_start_fails(self, chain3_eps1):
        # (4, 4) - (2, 2) lies in eps*H + K and b is below a: the blocking
        # point is in the hypothesis scope, so the witness fails alone
        forged = EVPCertificate(xbar="c", y0=(4, 4), chain=("a", "c"), xi_trace=(0, -4))
        assert verify_certificate(chain3_eps1, forged).failures == ("(witness)",)

    def test_witness_reached_from_one_image_of_a_point_fails(self):
        # b below a has two images; only (2, 2) reaches y0 = (4, 4) within
        # eps*H + K, and one reaching image is enough to block it
        space = FiniteMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        p = EVPProblem(
            space=space, f=map_table({"a": [(4, 4)], "b": [(2, 2), (10, 10)]}),
            K=ConeGen(2, ((1, 0), (0, 1))), H=Polytope(2, ((1, 1),)), x0="a",
            epsilon=1,
        )
        forged = EVPCertificate(xbar="b", y0=(4, 4), chain=("a", "b"), xi_trace=(0, -2))
        assert verify_certificate(p, forged).failures == ("(witness)",)

    @pytest.mark.parametrize(
        "mode, failures",
        [
            (ScaledMode(Fraction(3, 2)), ("(witness)",)),
            (EfficiencyMode(Fraction(4, 3)), ("(coradiant gap)", "(witness)")),
        ],
        ids=["scaled", "efficiency"],
    )
    def test_endpoint_at_the_radius_passes_c(self, mode, failures):
        # d(a, b) = 3/2 is exactly lambda, and exactly eps/gamma; scale * d
        # is then eps, so b's image blocks y0 and the witness fails, but the
        # walk stayed within the closed radius
        p = _tight_step_problem(mode, Fraction(4, 3))
        assert p.space.d("a", "b") == Fraction(3, 2)
        forged = EVPCertificate(xbar="b", y0=(4, 4), chain=("a", "b"), xi_trace=(0, -2))
        report = verify_certificate(p, forged)
        assert report.c is True and report.failures == failures

    def test_infeasible_chain_point_fails_the_chain(self):
        # b is below a and c below b, but b is not feasible
        p = dataclasses.replace(make_chain3(5), feasible=("a", "c"))
        forged = EVPCertificate(
            xbar="c", y0=(4, 4), chain=("a", "b", "c"), xi_trace=(0, -2, -4)
        )
        assert verify_certificate(p, forged).failures == ("(chain)",)

    @pytest.mark.parametrize(
        "trace, failures",
        [
            pytest.param((0, 0, 0), ("(trace)",), id="no-drop"),
            pytest.param((0, -1, Fraction(-3, 2)), ("(trace)",), id="short-last-step"),
            # each step drops by exactly scale * d = 1
            pytest.param((0, -1, -2), (), id="tight"),
        ],
    )
    def test_trace_drop_check_without_the_value_check(
        self, chain3_eps5, monkeypatch, trace, failures
    ):
        # a valid chain with exact values always drops far enough, so the
        # drop check is reached here only with the value check switched off
        monkeypatch.setattr(_CheckedRelation, "potential_is", lambda *args: True)
        forged = EVPCertificate(
            xbar="c", y0=(4, 4), chain=("a", "b", "c"), xi_trace=trace
        )
        assert verify_certificate(chain3_eps5, forged).failures == failures


class TestScaledMode:
    def test_distance_bound_holds(self):
        p = make_chain3(5, ScaledMode(10))
        cert = solve(p)
        report = verify_certificate(p, cert)
        assert report.c is True and report.passed
        assert p.space.d(p.x0, cert.xbar) <= 10

    def test_scale_is_ratio(self):
        p = make_chain3(5, ScaledMode(10))
        assert p.scale == Fraction(1, 2)

    def test_mode_names_are_not_arguments(self):
        # a certificate writes mode.name, so no instance may carry another
        for mode, args in ((PlainMode, ()), (ScaledMode, (10,)), (EfficiencyMode, (1,))):
            with pytest.raises(TypeError):
                mode(*args, name="plain")
        assert [m.name for m in (PlainMode(), ScaledMode(10), EfficiencyMode(1))] == [
            "plain", "scaled", "efficiency"
        ]


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: FiniteMetricSpace(("a", "b"), ((0, 1),)), InvalidConfigurationError,
            "distance matrix shape does not match labels", id="metric-shape",
        ),
        pytest.param(
            lambda: FiniteMetricSpace(("a", "b"), ((0, 1), (1,))), InvalidConfigurationError,
            "distance matrix shape does not match labels", id="metric-shape-ragged",
        ),
        pytest.param(
            lambda: map_table({"a": [(0, 0)]}).images("zz"), ValueError,
            "no image entry for label 'zz'", id="unknown-image-label",
        ),
        pytest.param(
            lambda: EVPProblem(
                space=FiniteMetricSpace(("a",), ((0,),)), f=map_table({"a": [(0, 0, 0)]}),
                K=ConeGen(2, ((1, 0), (0, 1))), H=Polytope(2, ((1, 1),)), x0="a",
                epsilon=1,
            ),
            DimensionMismatchError, "map, cone, and polytope dimensions differ",
            id="problem-dimensions",
        ),
        pytest.param(
            lambda: ae_efficient(make_chain3(5), "a", 0), ValueError,
            "eps must be positive", id="efficiency-eps-zero",
        ),
        pytest.param(
            lambda: ae_efficient(
                dataclasses.replace(make_chain3(5), feasible=("a", "b")), "c", 1
            ),
            ValueError, "'c' is not a feasible point", id="efficiency-infeasible-point",
        ),
        pytest.param(
            lambda: map_table({"a": [(0, 0)], "b": [(1, 2), (1, 2, 3)]}),
            DimensionMismatchError, "image of 'b' has length 3, expected 2",
            id="image-length",
        ),
    ],
)
def test_malformed_input_raises(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


class TestEfficiency:
    def test_approximate_efficiency_witness(self, chain3_eps5):
        assert ae_efficient(chain3_eps5, "a", 5) == (4, 4)

    def test_no_witness_below_threshold(self, chain3_eps5):
        assert ae_efficient(chain3_eps5, "a", 3) is None

    def test_bottom_point_is_efficient_at_any_eps(self, chain3_eps5):
        for eps in (1, 3, 5, "1/7"):
            assert ae_efficient(chain3_eps5, "c", eps) == (0, 0)

    def test_efficiency_mode_run_and_conclusions(self):
        p = make_chain3(5, EfficiencyMode(1))
        cert = solve(p)
        report = verify_certificate(p, cert)
        assert cert.xbar == "c"
        assert report.c is True          # walked 2 <= eps/gamma = 5
        assert report.coradiant_gap is True
        assert report.passed

    def test_argmin_ties_go_to_the_first_label(self):
        # b and c tie at -4; the section lists c before b, as the
        # feasible set does, but the argmin takes the first label
        p = EVPProblem(
            space=FiniteMetricSpace(
                ("a", "b", "c"), ((0, 1, 1), (1, 0, 1), (1, 1, 0))
            ),
            f=map_table({"a": [(4, 4)], "b": [(0, 0)], "c": [(0, 0)]}),
            K=ConeGen(2, ((1, 0), (0, 1))), H=Polytope(2, ((1, 1),)),
            x0="a", epsilon=5, mode=EfficiencyMode(1), feasible=("a", "c", "b"),
        )
        assert lower_section(p, "a") == ("a", "c", "b")
        cert = solve(p)
        assert cert.xbar == "b" and cert.chain == ("a", "b")
        assert verify_certificate(p, cert).passed

    def test_efficiency_mode_needs_pointed_cone(self):
        space = FiniteMetricSpace(("a",), ((0,),))
        table = map_table({"a": [(1, 0)]})
        line = ConeGen(2, ((1, 0), (-1, 0), (0, 1)))
        with pytest.raises(InvalidConfigurationError):
            EVPProblem(
                space=space, f=table, K=line, H=Polytope(2, ((0, 1),)),
                x0="a", epsilon=1, mode=EfficiencyMode(1),
            )

    def test_feasible_subset_restricts_the_walk(self):
        space = FiniteMetricSpace(
            ("a", "b", "c"), ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        )
        table = map_table(
            {"a": [(4, 4)], "b": [(2, 2)], "c": [(0, 0)]}
        )
        p = EVPProblem(
            space=space, f=table, K=ConeGen(2, ((1, 0), (0, 1))),
            H=Polytope(2, ((1, 1),)), x0="a", epsilon=5,
            mode=EfficiencyMode(1), feasible=("a", "b"),
        )
        cert = solve(p)
        assert cert.xbar == "b"  # c is outside the feasible set
        assert verify_certificate(p, cert).passed

    @pytest.mark.parametrize(
        "feasible, repeated", [(("a", "a"), "a"), (("a", "c", "c"), "c")]
    )
    def test_repeated_feasible_label_rejected(self, chain3_eps5, feasible, repeated):
        # a repeated label would enter a lower section twice, so the point
        # would not be the section's only member below itself
        with pytest.raises(InvalidConfigurationError) as exc:
            dataclasses.replace(
                chain3_eps5, mode=EfficiencyMode(1), feasible=feasible
            )
        assert str(exc.value) == f"feasible point {repeated!r} is listed twice"


class TestCoradiantEscape:
    def test_zero_step_degenerates_to_origin_exclusion(self, chain3_eps5):
        assert coradiant_escape_check(chain3_eps5, "a") == (1, 1)

    def test_wide_margin(self, chain3_eps5):
        assert coradiant_escape_check(chain3_eps5, "c") == (1, 1)

    def test_tight_margin_exhausts(self):
        # eps/gamma = 1 and d(a, c) = 2: (2, 2) lies in (1, 1) + K
        assert coradiant_escape_check(make_chain3(5, EfficiencyMode(5)), "c") is None

    def test_gamma_must_be_positive(self):
        # gamma comes from the efficiency mode, which rejects gamma <= 0
        for gamma in (0, -1):
            with pytest.raises(ValueError):
                EfficiencyMode(gamma)

    @staticmethod
    def _product_grid(vertices, depth):
        """Reference grid: every weight tuple of the product, filtered to
        sum <= depth, in product order."""
        yield from vertices
        p = len(vertices)
        if p == 1 or depth < 2:
            return
        seen = set(vertices)
        for comp in itertools.product(range(depth + 1), repeat=p - 1):
            s = sum(comp)
            if s > depth:
                continue
            weights = (depth - s,) + comp
            h = tuple(
                sum(Fraction(w, depth) * vertices[i][r] for i, w in enumerate(weights))
                for r in range(len(vertices[0]))
            )
            if h not in seen:
                seen.add(h)
                yield h

    def test_vertex_decision_matches_a_dense_grid(self):
        # {h : d*h in r*(H + K)} is convex, so no grid point of H escapes
        # when no vertex does; d >= r puts every step inside, so the draws
        # mix both outcomes
        rng = random.Random(20170817)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 3)
            K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, 3), rng.randint(1, 3))
            d = Fraction(rng.randint(1, 6), rng.randint(1, 2))
            eps = Fraction(rng.randint(1, 8), rng.randint(1, 2))
            gamma = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            if not is_pointed(K):
                continue  # efficiency mode needs a pointed cone
            images = {"a": [H.vertices[0]], "b": [H.vertices[0]]}
            p = EVPProblem(
                space=FiniteMetricSpace(("a", "b"), ((0, d), (d, 0))),
                f=map_table(images), K=K, H=H, x0="a",
                epsilon=eps, mode=EfficiencyMode(gamma),
            )
            r = eps / gamma
            found = coradiant_escape_check(p, "b")
            escapes = [
                h for h in self._product_grid(H.vertices, 6)
                if not scaled_H_plus_K_contains(H, K, tuple(d * c for c in h), r)
            ]
            assert (found is None) == (not escapes), (K, H, d, r)
            if found is not None:
                assert found in H.vertices
                assert not scaled_H_plus_K_contains(H, K, tuple(d * c for c in found), r)
            outcomes.add(found is None)
        assert outcomes == {True, False}

    def test_lp_counts(self, monkeypatch):
        lps = []

        def counted(lp):
            lps.append(lp)
            return lp_solve(lp)

        monkeypatch.setattr(geometry, "solve", counted)
        make_chain3(5)
        plain = len(lps)
        del lps[:]
        p = make_chain3(5, EfficiencyMode(1))
        # pointedness is a checked row per generator, so efficiency mode
        # runs the plain problem's LPs: none
        assert len(lps) == plain == 0

        in_check = []

        def check(q, xbar):
            before = len(lps)
            found = coradiant_escape_check(q, xbar)
            in_check.append(len(lps) - before)
            return found

        monkeypatch.setattr(evp, "coradiant_escape_check", check)
        cert = EVPCertificate(xbar="a", y0=(4, 4), chain=("a",), xi_trace=(0,))
        report = verify_certificate(p, cert)
        # xbar = x0: a checked row shows the origin step escapes, no LP
        assert in_check == [0] and report.coradiant_gap is True


class TestZeroDistance:
    """Properties at step length zero, where d(x, x') = 0 and the
    perturbation scale * d * H vanishes."""

    @staticmethod
    def _draws(seed, count, mode_factory=None):
        rng = random.Random(seed)
        problems = []
        while len(problems) < count:
            p = rand_problem(rng, max_points=5, mode_factory=mode_factory)
            if p is not None:
                problems.append(p)
        return problems

    def test_every_point_dominates_itself(self):
        for p in self._draws(43, 15):
            for x in p.space.labels:
                assert dominates(p, x, x)

    @pytest.mark.parametrize(
        "mode_factory",
        [None, lambda eps: ScaledMode(Fraction(1, 2)), lambda eps: ScaledMode(4)],
        ids=["plain", "scaled-short", "scaled-long"],
    )
    def test_singleton_start_section_stays_put(self, mode_factory):
        singletons = 0
        for p in self._draws(41, 40, mode_factory):
            if lower_section(p, p.x0) != (p.x0,):
                continue
            singletons += 1
            cert = solve(p)
            assert cert.xbar == p.x0 and cert.chain == (p.x0,)
            report = verify_certificate(p, cert)
            assert report.passed, report.failures
            assert report.c is (None if mode_factory is None else True)
        assert singletons >= 10

    def test_coradiant_check_at_start_is_origin_exclusion(self):
        for p in self._draws(47, 20):
            assert zero_notin_H_plus_K(p.H, p.K)
            assert coradiant_escape_check(p, p.x0) == p.H.vertices[0]


class TestRandomInstances:
    def test_solver_endpoint_is_brute_force_minimal(self):
        # one argmin step reaches an endpoint in every mode: the chain has
        # at most two points and nothing else lies below xbar
        modes = {
            "plain": None,
            "scaled": lambda eps: ScaledMode(Fraction(1, 2)),
            "efficiency": lambda eps: EfficiencyMode(1),
            "efficiency-half": lambda eps: EfficiencyMode(Fraction(1, 2)),
        }
        for name, mode_factory in modes.items():
            rng = random.Random(37)
            done = 0
            while done < 15:
                p = rand_problem(rng, max_points=6, mode_factory=mode_factory)
                if p is None:
                    continue
                done += 1
                cert = solve(p)
                assert cert.xbar in brute_force_minimal_set(p)
                assert len(cert.chain) <= 2
                assert lower_section(p, cert.xbar) == (cert.xbar,)
                report = verify_certificate(p, cert)
                assert report.passed, (name, p, cert, report)

    def test_no_mutual_domination_inside_start_section(self):
        rng = random.Random(43)
        done = 0
        while done < 10:
            p = rand_problem(rng, max_points=6)
            if p is None:
                continue
            done += 1
            section = lower_section(p, p.x0)
            for a in section:
                for b in section:
                    if a != b:
                        assert not (dominates(p, a, b) and dominates(p, b, a))

    def test_descent_inequality_along_random_chains(self):
        rng = random.Random(47)
        done = 0
        while done < 10:
            p = rand_problem(rng, max_points=6)
            if p is None:
                continue
            done += 1
            cert = solve(p)
            sf = SeparationFunctional(p.H, p.K)
            for (z1, v1), (z2, v2) in zip(
                zip(cert.chain, cert.xi_trace),
                zip(cert.chain[1:], cert.xi_trace[1:]),
            ):
                assert v1 - v2 >= p.scale * p.space.d(z1, z2)
            # trace values re-derive from the separation functional
            for label, claimed in zip(cert.chain, cert.xi_trace):
                actual = min(
                    evaluate(sf, vec_sub(y, cert.y0)) for y in p.images(label)
                )
                assert actual.value == claimed

    def test_efficiency_link_on_random_pointed_instances(self):
        rng = random.Random(53)
        done = 0
        while done < 6:
            base = rand_problem(rng, max_points=5, require_witness=False)
            if base is None:
                continue
            if not is_pointed(base.K):
                continue
            eps = Fraction(1)
            found = None
            for _ in range(10):
                p = EVPProblem(
                    space=base.space, f=base.f, K=base.K, H=base.H,
                    x0=base.x0, epsilon=eps, mode=EfficiencyMode(Fraction(1)),
                )
                if ae_efficient(p, p.x0, eps) is not None:
                    found = p
                    break
                eps *= 2
            if found is None:
                continue
            done += 1
            cert = solve(found)
            report = verify_certificate(found, cert)
            assert report.a and report.b and report.c


def _tight_step_problem(mode, scale) -> EVPProblem:
    """Two points at distance 3/2 and a one-vertex H; b sits exactly
    scale * d(a, b) * h below a, so b is below a with no slack."""
    d = Fraction(3, 2)
    space = FiniteMetricSpace(("a", "b"), ((0, d), (d, 0)))
    table = map_table({"a": [(4, 4)], "b": [(4 - scale * d, 4 - scale * d)]})
    return EVPProblem(
        space=space, f=table, K=ConeGen(2, ((1, 0), (0, 1))),
        H=Polytope(2, ((1, 1),)), x0="a", epsilon=2, mode=mode,
    )


def _lp_dominates(p: EVPProblem, xprime: str, x: str) -> bool:
    """The pre-order by membership LPs alone, for reference."""
    t = p.scale * p.space.d(x, xprime)
    return all(
        any(
            scaled_H_plus_K_contains(p.H, p.K, vec_sub(y, ys), t)
            for ys in p.images(xprime)
        )
        for y in p.images(x)
    )


def _lp_claims(p: EVPProblem, cert: EVPCertificate) -> tuple[bool, bool]:
    """Whether the certificate's (b) and hypothesis-witness claims are true."""
    b = not any(_lp_dominates(p, x, cert.xbar) for x in p.feasible if x != cert.xbar)
    if isinstance(p.mode, EfficiencyMode):
        scope = p.feasible
    else:
        scope = [x for x in p.feasible if _lp_dominates(p, x, p.x0)]
    witness = cert.y0 in p.images(p.x0) and not any(
        scaled_H_plus_K_contains(p.H, p.K, vec_sub(cert.y0, y), p.epsilon)
        for x in scope
        for y in p.images(x)
    )
    return b, witness


def _corrupted(p: EVPProblem, corrupt, which: int = 0) -> EVPProblem:
    """A fresh copy of p, built while the double description hands out
    corrupt(rows) for the cone over t*H + K (``which`` 0) or over
    t*H - K (``which`` 1), as a faulty `geometry.cone_halfspaces` would.
    The solver and the verifier read what the construction keeps."""
    target = geometry.homogenized_generators(p.H, p.K, (1, -1)[which])
    honest = geometry.cone_halfspaces

    def dd(gens, dim):
        hs = honest(gens, dim)
        return corrupt(hs) if gens == target else hs

    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "cone_halfspaces", dd)
        return dataclasses.replace(p)


def _dropped_facet(hs: ConeHalfspaces) -> ConeHalfspaces:
    return ConeHalfspaces(hs.rows[1:])


def _added_bad_row(hs: ConeHalfspaces) -> ConeHalfspaces:
    # minus the sum of the facet rows: negative on every generator that is
    # not on all facets, so with it the cone shrinks to (almost) its apex
    bad = tuple(-sum(col) for col in zip(*hs.rows))
    return ConeHalfspaces(hs.rows + (bad,))


def _lp_xi(p: EVPProblem, label: str, y0) -> ExtendedReal:
    """xi at a point by the LP route alone, for reference."""
    return min(evaluate(p._separation, vec_sub(y, y0)) for y in p.images(label))


def _counting_evaluate(monkeypatch) -> list:
    """Count the verifier's fallback calls of the LP `evaluate`."""
    calls = []

    def counted(F, y):
        calls.append(y)
        return evaluate(F, y)

    monkeypatch.setattr(evp, "evaluate", counted)
    return calls


_CORRUPTIONS = pytest.mark.parametrize(
    "corrupt, which",
    [(_dropped_facet, 0), (_added_bad_row, 0), (_dropped_facet, 1), (_added_bad_row, 1)],
    ids=["dropped", "added", "minus-dropped", "minus-added"],
)


class TestIndependentVerification:
    @staticmethod
    def _draws(seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            p = rand_problem(rng, max_points=7, max_images=3)
            if p is not None:
                out.append(p)
        return out

    def test_wrong_solver_memo_does_not_change_the_report(self, monkeypatch):
        for p in self._draws(71, 12):
            cert = solve(p)
            honest = verify_certificate(dataclasses.replace(p), cert)
            assert honest.passed
            wrong = {
                (xp, x): not _lp_dominates(p, xp, x)
                for xp in p.space.labels
                for x in p.space.labels
            }
            with monkeypatch.context() as m:
                m.setattr(evp, "dominates", lambda q, xp, x: wrong[(xp, x)])
                assert verify_certificate(p, cert) == honest

    def test_wrong_solver_memo_does_not_hide_a_forged_endpoint(
        self, chain3_eps5, monkeypatch
    ):
        p = chain3_eps5
        monkeypatch.setattr(evp, "dominates", lambda q, xp, x: xp == x)
        forged = EVPCertificate(xbar="b", y0=(4, 4), chain=("a", "b"), xi_trace=(0, -2))
        assert "(b)" in verify_certificate(p, forged).failures

    @pytest.mark.parametrize("corrupt", ["dropped-facet", "zero-products"])
    def test_corrupt_solver_rows_do_not_change_the_report(self, corrupt):
        # the solver and the verifier share the row-product class, not an
        # instance: corrupting the solver's rows after solve moves the
        # solver's own answers and leaves the verifier's report alone
        moved = 0
        for p in self._draws(71, 12):
            cert = solve(p)
            honest = verify_certificate(p, cert)
            pairs = list(itertools.product(p.feasible, repeat=2))
            before = [dominates(p, xp, x) for xp, x in pairs]
            rows = p._image_rows
            if corrupt == "dropped-facet":
                if not rows.plus_hs.rows:
                    continue
                p.__dict__["_image_rows"] = evp._ImageRows(
                    p, _dropped_facet(rows.plus_hs), rows.minus_hs
                )
            else:
                rows.plus = {l: [(0,) * len(r) for r in rs] for l, rs in rows.plus.items()}
            after = [dominates(p, xp, x) for xp, x in pairs]
            moved += after != before
            assert _CheckedRelation(p).rows is not p._image_rows
            assert verify_certificate(p, cert) == honest
        assert moved

    @_CORRUPTIONS
    def test_corrupt_rows_do_not_change_an_honest_report(
        self, corrupt, which, monkeypatch
    ):
        fallbacks = _counting_evaluate(monkeypatch)
        for p in self._draws(73, 12):
            cert = solve(p)
            honest = verify_certificate(p, cert)
            given = p._separation.halfspaces[which]
            if not given.rows:
                continue
            q = _corrupted(p, corrupt, which)
            # the construction keeps exactly the valid rows it was given,
            # and the solver and the verifier read that one list
            kept = _dropped_facet(given) if corrupt is _dropped_facet else given
            rel = _CheckedRelation(q)
            checked = (rel.rows.plus_hs, rel.rows.minus_hs)[which]
            assert checked is q._separation.halfspaces[which]
            assert checked.rows == kept.rows
            assert verify_certificate(q, cert) == honest
            if corrupt is _added_bad_row:
                # an added bad row is never read, by the solver either
                assert solve(q) == cert
        if (corrupt, which) == (_dropped_facet, 0):
            # a dropped facet lowers some row bound below the trace value,
            # and the LP evaluate decides that image without raising; an
            # honest trace never reaches the fallback through the cone over
            # t*H - K (see TestTraceCheck)
            assert fallbacks

    @_CORRUPTIONS
    def test_corrupt_solver_never_gets_a_false_claim_through(self, corrupt, which):
        false_claims = 0
        for p in self._draws(79, 25):
            if not p._separation.halfspaces[which].rows:
                continue
            q = _corrupted(p, corrupt, which)
            try:
                cert = solve(q)
            except (HypothesisViolatedError, InternalConsistencyError):
                continue
            true_b, true_witness = _lp_claims(p, cert)
            report = verify_certificate(q, cert)
            assert (report.b, report.witness_valid) == (true_b, true_witness)
            true_trace = all(
                _lp_xi(p, l, cert.y0) == ExtendedReal.finite(v)
                for l, v in zip(cert.chain, cert.xi_trace)
            )
            if report.chain_valid and report.witness_valid and not true_trace:
                assert not report.trace_consistent
            if not (true_b and true_witness and true_trace):
                false_claims += 1
                assert not report.passed
        if (corrupt, which) == (_dropped_facet, 0):
            # the test has teeth: a grown cone makes the solver claim
            # minimality, an escaping witness or a trace where none holds
            assert false_claims > 0
        if corrupt is _added_bad_row:
            # the construction drops the bad row, so the solver is honest
            assert false_claims == 0


class TestIntegerDataOnce:
    """Each piece of integer data behind the relation is formed once."""

    @staticmethod
    def _count(monkeypatch) -> dict:
        """Count the image scalings in `evp` and, inside `geometry`, the
        generator builds, double descriptions and row checks."""
        calls = {"integerize": 0, "generators": [], "dd": 0, "checked_rows": 0}
        evp_integerize = evp.integerize
        generators = geometry.homogenized_generators
        dd, checked_rows = geometry.cone_halfspaces, geometry.checked_rows

        def counted_integerize(values):
            calls["integerize"] += 1
            return evp_integerize(values)

        def counted_generators(H, K, k_sign):
            calls["generators"].append(k_sign)
            return generators(H, K, k_sign)

        def counted_dd(gens, dim):
            calls["dd"] += 1
            return dd(gens, dim)

        def counted_checked_rows(hs, gens):
            calls["checked_rows"] += 1
            return checked_rows(hs, gens)

        monkeypatch.setattr(evp, "integerize", counted_integerize)
        monkeypatch.setattr(geometry, "homogenized_generators", counted_generators)
        monkeypatch.setattr(geometry, "cone_halfspaces", counted_dd)
        monkeypatch.setattr(geometry, "checked_rows", counted_checked_rows)
        return calls

    def test_solve_and_its_self_check(self, tmp_path, monkeypatch, capsys):
        # the ``solve`` command solves one problem and verifies its answer
        # on that problem; exit code 0 means the self-check passed
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_TIGHT_TRACE_DOC))
        calls = self._count(monkeypatch)
        assert cli.main(["solve", str(path), "--json"]) == 0
        assert all(json.loads(capsys.readouterr().out)["checks"].values())
        assert calls == {
            "integerize": 1, "generators": [1, -1], "dd": 2, "checked_rows": 2
        }

    def test_bisection_reads_the_checked_rows_of_its_functional(self, monkeypatch):
        p = build_problem(_TIGHT_TRACE_DOC)
        calls = self._count(monkeypatch)
        F = SeparationFunctional(p.H, p.K)
        for y in p.images("p4"):
            assert evaluate_bisection(F, y, Fraction(1, 64), 100) >= evaluate(F, y)
        assert calls == {
            "integerize": 0, "generators": [1, -1], "dd": 2, "checked_rows": 2
        }


class TestTraceCheck:
    """`_CheckedRelation.potential_is`: checked row bounds plus one
    membership LP decide each trace value."""

    OFF = Fraction(1, 10**12)

    def test_claims_off_by_a_trillionth_fail(self):
        p = build_problem(_TIGHT_TRACE_DOC)
        cert = solve(p)
        label, true = cert.chain[-1], cert.xi_trace[-1]
        assert len(p.images(label)) == 3
        rel = _CheckedRelation(p)
        assert rel.potential_is(label, cert.y0, true)
        assert verify_certificate(p, cert).passed
        for v in (true + self.OFF, true - self.OFF):
            assert not rel.potential_is(label, cert.y0, v)
            forged = dataclasses.replace(cert, xi_trace=cert.xi_trace[:-1] + (v,))
            assert verify_certificate(p, forged).failures == ("(trace)",)

    def test_every_value_matches_the_lp_route(self, monkeypatch):
        # every label against every image of x0, so values of both signs
        # and +inf occur; with honest rows and with each corruption of
        # either cone, the true value passes and values a trillionth off
        # fail
        fallbacks = _counting_evaluate(monkeypatch)
        variants = [(None, 0), (_dropped_facet, 0), (_added_bad_row, 0),
                    (_dropped_facet, 1), (_added_bad_row, 1)]
        reached = set()
        for p in TestIndependentVerification._draws(71, 8):
            truths = {
                (l, y0): _lp_xi(p, l, y0)
                for l in p.space.labels
                for y0 in p.images(p.x0)
            }
            for corrupt, which in variants:
                if corrupt is None:
                    q = p
                elif p._separation.halfspaces[which].rows:
                    q = _corrupted(p, corrupt, which)
                else:
                    continue
                rel = _CheckedRelation(q)
                for (l, y0), xi in truths.items():
                    if not xi.is_finite:
                        assert not rel.potential_is(l, y0, Fraction(0))
                        continue
                    before = len(fallbacks)
                    assert rel.potential_is(l, y0, xi.value)
                    if len(fallbacks) > before:
                        reached.add((corrupt, which))
                    assert not rel.potential_is(l, y0, xi.value + self.OFF)
                    assert not rel.potential_is(l, y0, xi.value - self.OFF)
        # true values need the LP evaluate only where a facet is missing,
        # and a missing facet of either cone does send some there
        assert reached == {(_dropped_facet, 0), (_dropped_facet, 1)}

    @pytest.mark.parametrize(
        "corrupt, which",
        [(None, 0), (_dropped_facet, 0), (_dropped_facet, 1)],
        ids=["honest", "dropped", "minus-dropped"],
    )
    def test_membership_lps_only_where_the_walk_fails(self, corrupt, which, monkeypatch):
        # every "yes" for dominance, the witness and a trace value reached
        # is asked of `ConeHalfspaces.contains`, and each question the
        # walk leaves open takes exactly one membership LP: none on honest
        # rows.  Every answer is the reference oracle's.
        checked = []
        for p in [make_chain3(5)] + TestIndependentVerification._draws(71, 8):
            cert = solve(p)
            if corrupt is not None:
                if not p._separation.halfspaces[which].rows:
                    continue
                p = _corrupted(p, corrupt, which)
            checked.append((p, cert))
        evaluate_lps = []

        def counted_evaluate(lp):
            evaluate_lps.append(lp)
            return lp_solve(lp)

        log = ContainsLog(monkeypatch)
        monkeypatch.setattr(scalarization, "solve", counted_evaluate)
        cones = {}
        for p, cert in checked:
            plus, minus = p._separation.halfspaces
            cones[id(plus)], cones[id(minus)] = (p, 1), (p, -1)
            assert verify_certificate(p, cert).passed
        assert log.calls
        lps = log.assert_one_lp_per_open_question()
        if corrupt is None:
            assert lps == 0 and evaluate_lps == []
        elif which == 0:
            # a missing facet of the cone over t*H + K leaves some open
            assert lps > 0
        for hs, (z, _, num, den), answer, _, _ in log.calls:
            p, sign = cones[id(hs)]
            oracle = scaled_H_plus_K_contains if sign > 0 else scaled_H_minus_K_contains
            assert answer == oracle(p.H, p.K, z, Fraction(num, den))
