"""Ladder classification on worked ranges and random instances."""

import random
from fractions import Fraction

import pytest

from polyevp.boundedness import (
    classify,
    find_kstar,
    is_H_lower_bounded,
    is_K_lower_bounded,
    is_quasi_K_lower_bounded,
    separating_epsilon_for,
)
from polyevp.geometry import (
    ConeGen,
    Polytope,
    VPolyhedralUnion,
    cone_contains,
    union_disjoint_from,
)
from polyevp.lp_core import LinearProgram
from polyevp.rational import dot

from conftest import (
    dual_cone_contains,
    rand_cone_polytope,
    rand_union,
    rand_vector,
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
        for v in M.all_vertices():
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
            for v in M.all_vertices():
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


def test_find_kstar_builds_the_row_by_row_program(monkeypatch):
    # the program goes to the solver unchanged, so equal programs give
    # equal pivots and an equal witness
    from polyevp import boundedness

    seen = []
    solve = boundedness.solve

    def spy(lp):
        seen.append(lp)
        return solve(lp)

    monkeypatch.setattr(boundedness, "solve", spy)
    rng = random.Random(20170817)
    for _ in range(200):
        K, H, _ = rand_cone_polytope(
            rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        )
        M = rand_union(rng, K)
        seen.clear()
        find_kstar(M, K, H)
        assert seen == [_kstar_lp_by_rows(M, K, H)], (M, K, H)


def _lower_point_lp_by_rows(M, K) -> LinearProgram:
    """`is_K_lower_bounded`'s program written out row by row: one row per
    vertex coordinate v_r = b_r + sum_j w_j g_j[r], with b = b+ - b-, the
    two columns of each coordinate side by side, then the generator
    weights of each vertex."""
    verts, n, m = M.all_vertices(), M.dim, len(K.generators)
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


def test_k_lower_bound_builds_the_row_by_row_program(monkeypatch):
    # the same pinning as find_kstar's; every returned b is checked by
    # membership of v - b in K for each vertex v
    from polyevp import boundedness

    seen = []
    solve = boundedness.solve

    def spy(lp):
        seen.append(lp)
        return solve(lp)

    monkeypatch.setattr(boundedness, "solve", spy)
    rng = random.Random(20170818)
    found = 0
    for _ in range(200):
        K, _, _ = rand_cone_polytope(
            rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        )
        M = rand_union(rng, K, force_quasi=True)
        seen.clear()
        bounded, b = is_K_lower_bounded(M, K)
        assert seen == [_lower_point_lp_by_rows(M, K)], (M, K)
        if bounded:
            found += 1
            assert all(
                cone_contains(K, tuple(x - y for x, y in zip(v, b)))
                for v in M.all_vertices()
            ), (M, K, b)
    assert 0 < found < 200
