"""Ladder classification on worked ranges and random instances."""

import json
import random
from fractions import Fraction

import pytest

from polyevp import boundedness, cli
from polyevp.boundedness import (
    BoundednessReport,
    classify,
    find_kstar,
    is_quasi_K_lower_bounded,
)
from polyevp.geometry import (
    ConeGen,
    DimensionMismatchError,
    InternalConsistencyError,
    Polytope,
    VPolyhedralUnion,
    cone_contains,
    union_disjoint_from,
    zero_notin_H_plus_K,
)
from polyevp.lp_core import LinearProgram, _Tableau, solve

import conftest
from conftest import (
    all_vertices,
    dot,
    dual_cone_contains,
    is_H_lower_bounded,
    is_K_lower_bounded,
    rand_cone_polytope,
    rand_point_in_cone,
    rand_union,
    rand_vector,
    reference_common_lower_point,
    separating_epsilon_for,
)


@pytest.fixture
def halfline() -> ConeGen:
    return ConeGen(2, ((1, 0),))


class TestConeLowerBound:
    def test_strip_is_not_cone_bounded(self, strip_range, halfline):
        ok, witness = is_K_lower_bounded(strip_range, halfline)
        assert not ok and witness is None

    def test_singleton(self, orthant2):
        ok, witness = is_K_lower_bounded(
            VPolyhedralUnion(2, ((((1, 1),), ()),)), orthant2
        )
        assert ok and witness == (1, 1)

    def test_two_points_share_a_floor(self, orthant2):
        M = VPolyhedralUnion(2, ((((0, 1), (1, 0)), ()),))
        ok, witness = is_K_lower_bounded(M, orthant2)
        assert ok
        for v in all_vertices(M):
            assert cone_contains(orthant2, tuple(a - b for a, b in zip(v, witness)))


class TestQuasiLowerBound:
    def test_strip_is_quasi_bounded(self, strip_range, halfline):
        assert is_quasi_K_lower_bounded(strip_range, halfline)

    def test_vee_is_not(self, vee_range, orthant2):
        assert not is_quasi_K_lower_bounded(vee_range, orthant2)

    def test_rayless_ranges_always_are(self, orthant2):
        M = VPolyhedralUnion(2, ((((-5, 9), (3, -2)), ()),))
        assert is_quasi_K_lower_bounded(M, orthant2)


class TestDualWitness:
    def test_vee_yields_diagonal_functional(self, vee_range, simplex_segment, orthant2):
        ks = find_kstar(vee_range, orthant2, simplex_segment)
        assert ks is not None
        # positively proportional to (1, 1)
        assert ks[0] == ks[1] and ks[0] > 0
        assert dual_cone_contains(orthant2, ks)
        assert all(dot(ks, h) >= 1 for h in simplex_segment.vertices)
        assert all(dot(ks, r) >= 0 for r in vee_range.all_rays())

    def test_axis_cross_has_none(self, axis_cross_range, slanted_segment, orthant2):
        assert find_kstar(axis_cross_range, orthant2, slanted_segment) is None

    def test_rayless_singleton_has_some_witness(self, orthant2):
        M = VPolyhedralUnion(2, ((((0, 0),), ()),))
        ks = find_kstar(M, orthant2, Polytope(2, ((1, 1),)))
        assert ks is not None
        assert dual_cone_contains(orthant2, ks)
        assert dot(ks, (1, 1)) >= 1


class TestShiftedSetBound:
    def test_axis_cross_confirmed_at_unit_candidate(
        self, axis_cross_range, slanted_segment, orthant2
    ):
        res = is_H_lower_bounded(
            axis_cross_range, orthant2, slanted_segment, [((0, 0), 1)]
        )
        assert res == ((Fraction(0), Fraction(0)), Fraction(1))

    def test_whole_plane_stays_unknown(self, slanted_segment, orthant2):
        plane = VPolyhedralUnion(
            2, ((((0, 0),), ((1, 0), (-1, 0), (0, 1), (0, -1))),)
        )
        res = is_H_lower_bounded(
            plane, orthant2, slanted_segment, [((0, 0), 1), ((9, 9), 4)]
        )
        assert res is None

    def test_vee_confirmed(self, vee_range, simplex_segment, orthant2):
        res = is_H_lower_bounded(vee_range, orthant2, simplex_segment, [((0, 0), 1)])
        assert res is not None

    def test_empty_candidates_rejected(self, vee_range, simplex_segment, orthant2):
        with pytest.raises(ValueError):
            is_H_lower_bounded(vee_range, orthant2, simplex_segment, [])

    def test_nonpositive_eps_rejected(self, vee_range, simplex_segment, orthant2):
        with pytest.raises(ValueError):
            is_H_lower_bounded(vee_range, orthant2, simplex_segment, [((0, 0), 0)])


class TestClassify:
    def test_strip(self, strip_range, halfline):
        rep = classify(strip_range, halfline, Polytope(2, ((1, 0),)))
        assert not rep.k_lower and rep.quasi_k_lower
        assert rep.ladder_consistent

    def test_vee(self, vee_range, simplex_segment, orthant2):
        rep = classify(vee_range, orthant2, simplex_segment)
        assert not rep.quasi_k_lower and rep.kstar_h_lower
        assert rep.kstar_witness[0] == rep.kstar_witness[1] > 0
        assert rep.ladder_consistent

    def test_axis_cross(self, axis_cross_range, slanted_segment, orthant2):
        rep = classify(axis_cross_range, orthant2, slanted_segment)
        assert not rep.kstar_h_lower and rep.h_lower is True
        assert rep.h_lower_witness == ((Fraction(0), Fraction(0)), Fraction(1))
        assert rep.ladder_consistent

    def test_rejects_origin_in_sum(self, vee_range, orthant2):
        with pytest.raises(ValueError):
            classify(vee_range, orthant2, Polytope(2, ((0, 0),)))


_UNION2 = VPolyhedralUnion(2, ((((0, 0),), ()),))
_ORTHANT2 = ConeGen(2, ((1, 0), (0, 1)))
_ORTHANT3 = ConeGen(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: is_quasi_K_lower_bounded(_UNION2, _ORTHANT3),
            "union and cone dimensions differ", id="quasi-k-lower",
        ),
        # raised by is_quasi_K_lower_bounded, which it calls first
        pytest.param(
            lambda: is_K_lower_bounded(_UNION2, _ORTHANT3),
            "union and cone dimensions differ", id="k-lower",
        ),
        pytest.param(
            lambda: find_kstar(_UNION2, _ORTHANT3, Polytope(2, ((1, 1),))),
            "union and cone dimensions differ", id="kstar-cone",
        ),
        pytest.param(
            lambda: find_kstar(_UNION2, _ORTHANT2, Polytope(3, ((1, 1, 1),))),
            "polytope dimension differs", id="kstar-polytope",
        ),
    ],
)
def test_dimension_mismatch_raises(call, message):
    with pytest.raises(DimensionMismatchError) as caught:
        call()
    assert str(caught.value) == message


def test_ladder_chain_on_random_instances():
    rng = random.Random(31)
    for _ in range(60):
        K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2))
        M = rand_union(rng, K)
        k_lower, witness_b = is_K_lower_bounded(M, K)
        quasi = is_quasi_K_lower_bounded(M, K)
        kstar = find_kstar(M, K, H)
        if k_lower:
            assert quasi
            for v in all_vertices(M):
                assert cone_contains(K, tuple(a - b for a, b in zip(v, witness_b)))
        if quasi:
            assert kstar is not None
        if kstar is not None:
            # the witness-derived escape scale always verifies, for any anchor
            for y in [tuple(Fraction(0) for _ in range(K.dim)), rand_vector(rng, K.dim)]:
                eps = separating_epsilon_for(M, kstar, y)
                assert union_disjoint_from(M, y, eps, H, K)


def test_classify_reports_shifted_set_bound_whenever_kstar_exists():
    # level 3 implies level 4: classify follows its origin candidate
    # with the escape scale derived from k*, which always verifies
    rng = random.Random(31)
    for _ in range(200):
        K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2))
        M = rand_union(rng, K)
        rep = classify(M, K, H)
        if rep.kstar_h_lower:
            assert rep.h_lower is True, (M, K, H)


def test_strictness_of_every_ladder_step(
    strip_range, halfline, vee_range, simplex_segment, axis_cross_range,
    slanted_segment, orthant2,
):
    # each rung is witnessed strict by one of the worked ranges
    assert is_quasi_K_lower_bounded(strip_range, halfline)
    assert not is_K_lower_bounded(strip_range, halfline)[0]

    assert find_kstar(vee_range, orthant2, simplex_segment) is not None
    assert not is_quasi_K_lower_bounded(vee_range, orthant2)

    assert find_kstar(axis_cross_range, orthant2, slanted_segment) is None
    assert is_H_lower_bounded(
        axis_cross_range, orthant2, slanted_segment, [((0, 0), 1)]
    ) is not None


def _kstar_lp_by_rows(M, K, H) -> LinearProgram:
    """`find_kstar`'s program written out row by row: one row per
    constraint w . l >= bound, with l = a - b and a slack per row."""
    n = M.dim
    constraints = [(g, Fraction(0)) for g in K.generators]
    constraints += [(h, Fraction(1)) for h in H.vertices]
    constraints += [(r, Fraction(0)) for r in M.all_rays()]
    k = len(constraints)
    rows, rhs = [], []
    for ci, (w, bound) in enumerate(constraints):
        row = [Fraction(0)] * (2 * n + k)
        for r in range(n):
            row[r] = w[r]
            row[n + r] = -w[r]
        row[2 * n + ci] = Fraction(-1)
        rows.append(tuple(row))
        rhs.append(bound)
    objective = (Fraction(1),) * (2 * n) + (Fraction(0),) * k
    return LinearProgram(2 * n + k, tuple(rows), tuple(rhs), objective)


def _small_draw(rng):
    """(M, K, H) in dimension 2-3 with 1-3 generators and 1-2 vertices."""
    K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2))
    return rand_union(rng, K), K, H


def _geometry_draw(rng):
    """(M, K, H) shaped like the `geometry` benchmark documents: dimension
    3-4, 2..dim+2 generators and 1-3 vertices."""
    n = rng.randint(3, 4)
    K, H, _ = rand_cone_polytope(rng, n, rng.randint(2, n + 2), rng.randint(1, 3))
    return rand_union(rng, K), K, H


# Pivots of the 200 programs of each family below; counts do not depend
# on the machine.  The crash start begins each K-generator and ray row on
# its slack, so only H's rows start on artificials.
KSTAR_PIVOTS = 634
GEOMETRY_KSTAR_PIVOTS = 1466


def test_find_kstar_builds_the_row_by_row_program(monkeypatch):
    # the program goes to the solver unchanged, so equal programs give
    # equal pivots and an equal witness
    from polyevp import boundedness

    seen = []
    solve = boundedness.solve
    pivots = 0
    pivot = _Tableau.pivot

    def spy(lp):
        seen.append(lp)
        return solve(lp)

    def counted_pivot(tab, p, q):
        nonlocal pivots
        pivots += 1
        pivot(tab, p, q)

    monkeypatch.setattr(boundedness, "solve", spy)
    monkeypatch.setattr(_Tableau, "pivot", counted_pivot)
    for draw, seed, expected in (
        (_small_draw, 20170817, KSTAR_PIVOTS),
        (_geometry_draw, 20170818, GEOMETRY_KSTAR_PIVOTS),
    ):
        rng = random.Random(seed)
        pivots = 0
        for _ in range(200):
            M, K, H = draw(rng)
            seen.clear()
            find_kstar(M, K, H)
            assert seen == [_kstar_lp_by_rows(M, K, H)], (M, K, H)
        assert pivots == expected, draw.__name__


def _lower_point_lp_by_rows(M, K) -> LinearProgram:
    """The LP route to a common lower point, written out row by row: one
    row per vertex coordinate v_r = b_r + sum_j w_j g_j[r], with
    b = b+ - b-, the two columns of each coordinate side by side, then
    the generator weights of each vertex.  It is feasible iff some b has
    every piece vertex in b + K."""
    verts, n, m = all_vertices(M), M.dim, len(K.generators)
    width = 2 * n + m * len(verts)
    rows, rhs = [], []
    for vi, v in enumerate(verts):
        for r in range(n):
            row = [Fraction(0)] * width
            row[2 * r], row[2 * r + 1] = Fraction(1), Fraction(-1)
            for j, g in enumerate(K.generators):
                row[2 * n + m * vi + j] = g[r]
            rows.append(tuple(row))
            rhs.append(v[r])
    return LinearProgram(width, tuple(rows), tuple(rhs))


def _rank(vectors) -> int:
    """The rank of a list of vectors, by Fraction elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [a - f * e for a, e in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _cone_in_subspace(rng, n) -> ConeGen:
    """A cone of 1-4 generators drawn in a random subspace of dimension
    1..n, so it is often not full-dimensional and its generators are often
    dependent."""
    basis = [rand_vector(rng, n, -3, 3, 1) for _ in range(rng.randint(1, n))]
    basis = [b for b in basis if any(b)] or [(Fraction(1),) * n]
    count = rng.randint(1, 4)
    gens = []
    while len(gens) < count:
        w = [rng.randint(-2, 2) for _ in basis]
        g = tuple(sum((c * b[r] for c, b in zip(w, basis)), Fraction(0)) for r in range(n))
        if any(g):
            gens.append(g)
    return ConeGen(n, tuple(gens))


def _range_over(rng, K) -> VPolyhedralUnion:
    """1-3 pieces with rays in K.  Each vertex after the first is a free
    point or the first plus a combination of K's generators with weights
    of either sign, so level 1 can hold when K is not full-dimensional."""
    n = K.dim
    v1 = rand_vector(rng, n)
    verts = [v1]
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            verts.append(rand_vector(rng, n))
        else:
            mu = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in K.generators]
            verts.append(tuple(
                v1[r] + sum((c * g[r] for c, g in zip(mu, K.generators)), Fraction(0))
                for r in range(n)
            ))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, len(verts)), rng.randint(0, min(2, len(verts) - 1))))
    pieces = []
    for lo, hi in zip([0] + cuts, cuts + [len(verts)]):
        ray = rand_point_in_cone(rng, K)
        rays = (ray,) if any(ray) and rng.random() < 0.5 else ()
        pieces.append((tuple(verts[lo:hi]), rays))
    return VPolyhedralUnion(n, tuple(pieces))


def test_k_lower_bound_agrees_with_the_lp_route():
    # the span test decides level 1 exactly when the LP is feasible, and
    # every b it returns puts each vertex in b + K, checked by membership
    rng = random.Random(20170818)
    seen = {"yes": 0, "no": 0, "low-rank yes": 0, "dependent yes": 0, "one vertex": 0}
    for _ in range(300):
        n = rng.randint(2, 3)
        K = _cone_in_subspace(rng, n)
        M = _range_over(rng, K)
        verts = all_vertices(M)
        bounded, b = is_K_lower_bounded(M, K)
        assert bounded == solve(_lower_point_lp_by_rows(M, K)).is_feasible, (M, K)
        rank = _rank(K.generators)
        if bounded:
            assert all(
                cone_contains(K, tuple(x - y for x, y in zip(v, b))) for v in verts
            ), (M, K, b)
            seen["low-rank yes"] += rank < n
            seen["dependent yes"] += rank < len(K.generators)
        else:
            assert b is None
        seen["yes" if bounded else "no"] += 1
        seen["one vertex"] += len(verts) == 1
    assert all(seen.values()), seen



class TestCandidatesCheckedBeforeAnyLP:
    """`is_H_lower_bounded` rejects a bad candidate wherever it stands in
    the list, although an earlier candidate would already miss M."""

    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an LP ran before every candidate was checked")

        monkeypatch.setattr(conftest, "union_disjoint_from", refuse)

    def test_the_first_candidate_alone_misses_the_vee(
        self, vee_range, simplex_segment, orthant2
    ):
        res = is_H_lower_bounded(vee_range, orthant2, simplex_segment, [((-5, -5), 1)])
        assert res == ((Fraction(-5), Fraction(-5)), Fraction(1))

    def test_later_nonpositive_eps(self, vee_range, simplex_segment, orthant2, no_lp):
        with pytest.raises(ValueError) as caught:
            is_H_lower_bounded(
                vee_range, orthant2, simplex_segment, [((-5, -5), 1), ((0, 0), 0)]
            )
        assert str(caught.value) == "every candidate eps must be positive"

    def test_later_anchor_of_another_dimension(
        self, vee_range, simplex_segment, orthant2, no_lp
    ):
        with pytest.raises(DimensionMismatchError) as caught:
            is_H_lower_bounded(
                vee_range, orthant2, simplex_segment, [((-5, -5), 1), ((0, 0, 0), 1)]
            )
        assert str(caught.value) == "anchor point has length 3, expected dimension 2"


def _is_dual_witness(M, K, H, kstar) -> bool:
    """The defining inequalities of a dual witness, in Fractions."""
    return (
        all(dot(kstar, g) >= 0 for g in K.generators)
        and all(dot(kstar, h) >= 1 for h in H.vertices)
        and all(dot(kstar, r) >= 0 for r in M.all_rays())
    )


def _reference_classify(M, K, H) -> BoundednessReport:
    """`classify` by the LP route: the origin LP, then one
    `union_disjoint_from` per candidate, with the escape scale of k* in
    Fractions.  k* comes from `boundedness.find_kstar`, so a test that
    replaces it replaces it here too."""
    if not zero_notin_H_plus_K(H, K):
        raise ValueError("dual-witness classification requires the origin outside H + K")
    quasi = is_quasi_K_lower_bounded(M, K)
    _, b = is_K_lower_bounded(M, K)
    kstar = boundedness.find_kstar(M, K, H)
    origin = (Fraction(0),) * M.dim
    candidates = [(origin, Fraction(1))]
    if kstar is not None:
        inf_m = min(dot(kstar, v) for v in all_vertices(M))
        candidates.append((origin, max(-inf_m, Fraction(0)) + 1))
    witness = next(
        ((y0, e) for y0, e in candidates if union_disjoint_from(M, y0, e, H, K)), None
    )
    return BoundednessReport(
        k_lower=b is not None,
        k_lower_witness=b,
        quasi_k_lower=quasi,
        kstar_h_lower=kstar is not None,
        kstar_witness=kstar,
        h_lower=True if witness is not None else None,
        h_lower_witness=witness,
        ladder_consistent=not (quasi and kstar is None),
    )


def _count_lps(monkeypatch) -> dict:
    """Count `classify`'s origin LPs and shifted-set LPs."""
    calls = {"origin": 0, "shifted": 0}
    origin, shifted = boundedness.zero_notin_H_plus_K, boundedness.union_disjoint_from

    def counted_origin(H, K):
        calls["origin"] += 1
        return origin(H, K)

    def counted_shifted(*args):
        calls["shifted"] += 1
        return shifted(*args)

    monkeypatch.setattr(boundedness, "zero_notin_H_plus_K", counted_origin)
    monkeypatch.setattr(boundedness, "union_disjoint_from", counted_shifted)
    return calls


def test_classify_matches_the_lp_route(monkeypatch):
    # a checked k* replaces the origin LP and each candidate LP it
    # settles; every other candidate still takes its LP
    rng = random.Random(20221)
    seen = {
        "no k*": 0, "ray outside K": 0, "origin certified": 0,
        "origin by LP": 0, "k* candidate certified": 0,
    }
    for _ in range(300):
        K, H, _ = rand_cone_polytope(
            rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        )
        M = rand_union(rng, K)
        expected = _reference_classify(M, K, H)
        calls = _count_lps(monkeypatch)
        rep = classify(M, K, H)
        monkeypatch.undo()
        assert rep == expected, (M, K, H)
        kstar = rep.kstar_witness
        seen["ray outside K"] += not rep.quasi_k_lower
        if kstar is None:
            seen["no k*"] += 1
            # one LP per candidate: the origin at eps 1 is the only one
            assert calls == {"origin": 1, "shifted": 1}
            continue
        assert _is_dual_witness(M, K, H, kstar)
        # the k* candidate always passes, so no candidate after the first
        # takes an LP, and the first takes one unless k* settles it
        inf_m = min(dot(kstar, v) for v in all_vertices(M))
        escape = max(-inf_m, Fraction(0)) + 1
        first = -1 < inf_m
        assert -escape < inf_m
        assert calls == {"origin": 0, "shifted": 0 if first else 1}
        seen["origin certified" if first else "origin by LP"] += 1
        seen["k* candidate certified"] += rep.h_lower_witness[1] != 1
    assert all(seen.values()), seen


def _kstar_failure(kstar) -> str:
    """The message `classify` raises for a k* that fails its check."""
    return f"k* = ({', '.join(str(c) for c in kstar)}) fails its dual-witness check"


def test_a_corrupted_kstar_raises_before_any_lp(monkeypatch):
    # k* with one entry lowered: whenever it is no longer a dual witness,
    # classify raises before the origin LP or any candidate LP; while it
    # still is one, the report is the LP route's on that same k*
    find = boundedness.find_kstar

    def corrupted(M, K, H):
        kstar = find(M, K, H)
        return None if kstar is None else (kstar[0] - 3,) + kstar[1:]

    rng = random.Random(20222)
    seen = {"raised": 0, "still a witness": 0}
    for _ in range(150):
        K, H, _ = rand_cone_polytope(
            rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        )
        M = rand_union(rng, K)
        kstar = corrupted(M, K, H)
        monkeypatch.setattr(boundedness, "find_kstar", corrupted)
        if kstar is not None and not _is_dual_witness(M, K, H, kstar):
            calls = _count_lps(monkeypatch)
            with pytest.raises(InternalConsistencyError) as caught:
                classify(M, K, H)
            monkeypatch.undo()
            assert str(caught.value) == _kstar_failure(kstar)
            assert calls == {"origin": 0, "shifted": 0}, (M, K, H)
            seen["raised"] += 1
            continue
        expected = _reference_classify(M, K, H)
        rep = classify(M, K, H)
        monkeypatch.undo()
        assert rep == expected, (M, K, H)
        seen["still a witness"] += kstar is not None
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "kstar",
    [
        pytest.param((Fraction(-1), Fraction(3)), id="negative-on-a-generator"),
        pytest.param((Fraction(0), Fraction(1, 2)), id="below-one-on-H"),
        pytest.param((Fraction(1), Fraction(2)), id="negative-on-a-ray"),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_kstar_failing_its_check_exits_3(tmp_path, monkeypatch, capsys, kstar, flags):
    # K the orthant, H = {(1, 1)} and M the ray (1, -1) from the origin:
    # each k* fails one inequality of its check, and passes those before it
    doc = {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1]]},
        "ranges": {"pieces": [{"vertices": [[0, 0]], "rays": [[1, -1]]}]},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("an LP ran after k* failed its check")

    monkeypatch.setattr(boundedness, "find_kstar", lambda M, K, H: kstar)
    monkeypatch.setattr(boundedness, "zero_notin_H_plus_K", refuse)
    monkeypatch.setattr(boundedness, "union_disjoint_from", refuse)
    assert cli.main(["diagnose", str(path), *flags]) == 3
    assert capsys.readouterr().out == (
        f"internal consistency failure: {_kstar_failure(kstar)}\n"
    )


@pytest.mark.parametrize("entry, step", [(0, 1), (1, -1)])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_b_failing_its_check_exits_3(tmp_path, monkeypatch, capsys, entry, step, flags):
    # K the orthant and M the points (0, 0) and (-1/2, 2): mu = (-1/2, 2)
    # for the second, so lam = 1/2 and b = (-1/2, -1/2), with weights
    # (1/2, 1/2) and (0, 5/2); one weight moved before the check is a bug
    doc = {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1]]},
        "ranges": {"pieces": [{"vertices": [[0, 0], ["-1/2", 2]], "rays": []}]},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["diagnose", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["k_lower_witness"] == ["-1/2", "-1/2"]
    check = boundedness.combines_to

    def corrupted(coeffs, gens, point):
        moved = list(coeffs)
        moved[entry] += step
        return check(moved, gens, point)

    monkeypatch.setattr(boundedness, "combines_to", corrupted)
    assert cli.main(["diagnose", str(path), *flags]) == 3
    assert capsys.readouterr().out == (
        "internal consistency failure: b = (-1/2, -1/2) fails its check\n"
    )


@pytest.mark.parametrize(
    "M, H, error, message",
    [
        # H of another dimension is reported before any LP
        pytest.param(
            _UNION2, Polytope(3, ((1, 1, 1),)), DimensionMismatchError,
            "polytope and cone dimensions differ", id="polytope",
        ),
        pytest.param(
            VPolyhedralUnion(3, ((((0, 0, 0),), ()),)), Polytope(2, ((1, 1),)),
            DimensionMismatchError, "union and cone dimensions differ", id="union",
        ),
        # with both wrong, the origin test speaks first, as on the LP route
        pytest.param(
            VPolyhedralUnion(3, ((((0, 0, 0),), ()),)), Polytope(2, ((0, 0),)),
            ValueError, "dual-witness classification requires the origin outside H + K",
            id="union-and-origin",
        ),
    ],
)
def test_classify_reports_the_lp_routes_first_error(M, H, error, message):
    with pytest.raises(error) as caught:
        classify(M, _ORTHANT2, H)
    assert str(caught.value) == message


def test_separating_epsilon_matches_the_fraction_formula():
    # the integer forms change how the infimum over M is found, not its value
    rng = random.Random(20223)
    found = checked = 0
    for _ in range(150):
        K, H, _ = rand_cone_polytope(
            rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        )
        M = rand_union(rng, K)
        kstar = find_kstar(M, K, H)
        if kstar is None:
            continue
        found += 1
        y = rand_vector(rng, K.dim)
        gap = dot(kstar, y) - min(dot(kstar, v) for v in all_vertices(M))
        expected = max(gap, Fraction(0)) + 1
        assert separating_epsilon_for(M, kstar, y) == expected
        # classify passes the infimum of a checked k* instead
        inf_m = boundedness._kstar_infimum(M, K, H, kstar)
        if inf_m is not None:
            checked += 1
            assert separating_epsilon_for(M, kstar, y, inf_m) == expected
    assert found > 0 and checked > 0


def test_common_lower_point_matches_fraction_gauss_jordan():
    # the fraction-free elimination gives the b of Fraction Gauss-Jordan:
    # K with fewer generators than the dimension, dependent generators
    # and one-vertex ranges are among the draws
    rng = random.Random(20268)
    found = missing = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        K, _, _ = rand_cone_polytope(rng, n, rng.randint(1, n + 2), 1)
        if rng.random() < 0.3:
            # a dependent generator: a multiple of another one
            g = rng.choice(K.generators)
            K = ConeGen(n, K.generators + (tuple(Fraction(3, 2) * c for c in g),))
        M = rand_union(rng, K)
        b = boundedness._common_lower_point(M, K)
        assert b == reference_common_lower_point(M, K), (M, K)
        if b is None:
            missing += 1
        else:
            found += 1
            assert all(type(c) is Fraction for c in b)
    assert found > 0 and missing > 0
