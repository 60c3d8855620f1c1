"""Membership oracles on worked instances plus structural properties."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from polyevp import geometry
from polyevp.geometry import (
    ConeGen,
    ConeHalfspaces,
    DimensionMismatchError,
    InvalidConfigurationError,
    Polytope,
    VPolyhedralUnion,
    checked_rows,
    cone_contains,
    cone_halfspaces,
    homogenized_generators,
    homogenized_halfspaces,
    is_pointed,
    reaches,
    scaled_H_minus_K_contains,
    scaled_H_plus_K_contains,
    union_disjoint_from,
    weights_certify_scaled_H_minus_K,
    zero_notin_H_plus_K,
)
from polyevp.rational import integerize
from polyevp.scalarization import evaluate, SeparationFunctional

from conftest import (
    all_vertices,
    dot,
    dual_cone_contains,
    instance_point_scales,
    rand_cone_polytope,
    rand_point_in_cone,
)


def triangle_property_check(H: Polytope, K: ConeGen, d1, d2) -> bool:
    """Is d1*H + d2*H within (d1 + d2)*H + K, for scales d1, d2 >= 0?
    By convexity the vertex pairs decide it for the whole sum."""
    return all(
        scaled_H_plus_K_contains(
            H, K, tuple(d1 * x + d2 * y for x, y in zip(hi, hj)), d1 + d2
        )
        for hi in H.vertices
        for hj in H.vertices
    )


def contains(hs: ConeHalfspaces, w) -> bool:
    """Is w in the cone {w : r . w >= 0 for each row r of hs}?"""
    return all(dot(r, w) >= 0 for r in hs.rows)


class TestConeMembership:
    def test_positive_combination(self, orthant2):
        assert cone_contains(orthant2, (1, 2))

    def test_outside_orthant(self, orthant2):
        assert not cone_contains(orthant2, (-1, 0))

    def test_zero_vector(self, orthant2):
        assert cone_contains(orthant2, (0, 0))

    def test_every_generator_is_inside(self):
        rng = random.Random(5)
        for _ in range(20):
            K, _, _ = rand_cone_polytope(rng, rng.randint(2, 3), rng.randint(1, 4), 1)
            for g in K.generators:
                assert cone_contains(K, g)

    def test_dimension_mismatch(self, orthant2):
        with pytest.raises(DimensionMismatchError):
            cone_contains(orthant2, (1, 2, 3))


def test_impossible_draw_raises_quickly():
    # with no generators every candidate vertex is the origin, which the
    # draw rejects, so only the restart cap ends the search
    start = time.perf_counter()
    with pytest.raises(ValueError, match="0 generators in dimension 7"):
        rand_cone_polytope(random.Random(0), 7, 0, 4)
    assert time.perf_counter() - start < 2


class TestDualCone:
    def test_diagonal_functional(self, orthant2):
        assert dual_cone_contains(orthant2, (1, 1))

    def test_negative_on_generator(self, orthant2):
        assert not dual_cone_contains(orthant2, (-1, 0))

    def test_zero_functional(self, orthant2):
        assert dual_cone_contains(orthant2, (0, 0))


class TestScaledMembership:
    def test_at_threshold(self, diagonal_segment, orthant2):
        assert scaled_H_minus_K_contains(diagonal_segment, orthant2, (1, 1), 1)

    def test_just_below_threshold(self, diagonal_segment, orthant2):
        # independent route: t * s * (1,1) with s in [1/2, 1] never covers
        # (1, 1) when t < 1, since t * s < 1 forces a positive remainder
        assert not scaled_H_minus_K_contains(
            diagonal_segment, orthant2, (1, 1), Fraction(99, 100)
        )

    def test_negative_scale(self, diagonal_segment, orthant2):
        assert scaled_H_minus_K_contains(diagonal_segment, orthant2, (-1, -1), -2)


class TestOriginSeparation:
    def test_segment_off_origin(self, diagonal_segment, orthant2):
        assert zero_notin_H_plus_K(diagonal_segment, orthant2)

    def test_origin_vertex(self, orthant2):
        assert not zero_notin_H_plus_K(Polytope(2, ((0, 0),)), orthant2)

    def test_slanted_segment(self, slanted_segment, orthant2):
        assert zero_notin_H_plus_K(slanted_segment, orthant2)


class TestTriangleProperty:
    def test_diagonal_segment_unit_scales(self, diagonal_segment, orthant2):
        assert triangle_property_check(diagonal_segment, orthant2, 1, 1)

    def test_zero_scale(self, diagonal_segment, orthant2):
        assert triangle_property_check(diagonal_segment, orthant2, 0, 1)

    def test_slanted_segment_mixed_scales(self, slanted_segment, orthant2):
        assert triangle_property_check(slanted_segment, orthant2, 1, 2)

    def test_holds_on_random_instances(self):
        # guaranteed whenever H sits inside a convex K
        rng = random.Random(11)
        for _ in range(25):
            K, H, _ = rand_cone_polytope(
                rng, rng.randint(2, 3), rng.randint(1, 4), rng.randint(1, 3)
            )
            d1 = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            d2 = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            assert triangle_property_check(H, K, d1, d2)


class TestUnionDisjointness:
    def test_axis_cross_escapes_unit_translate(self, axis_cross_range, slanted_segment, orthant2):
        assert union_disjoint_from(
            axis_cross_range, (0, 0), 1, slanted_segment, orthant2
        )

    def test_explicit_intersection_point(self, slanted_segment, orthant2):
        inside = VPolyhedralUnion(2, ((((-1, -1),), ()),))  # -1 * (1,1) vertex
        assert not union_disjoint_from(inside, (0, 0), 1, slanted_segment, orthant2)

    def test_vee_escapes_unit_translate(self, vee_range, simplex_segment, orthant2):
        assert union_disjoint_from(vee_range, (0, 0), 1, simplex_segment, orthant2)

    def test_eps_must_be_positive(self, vee_range, simplex_segment, orthant2):
        with pytest.raises(ValueError):
            union_disjoint_from(vee_range, (0, 0), 0, simplex_segment, orthant2)


@given(instance_point_scales())
@settings(max_examples=40, deadline=None)
def test_feasibility_is_monotone_in_the_scale(data):
    # H inside K makes the feasible scale set upward closed
    K, H, y, t1, t2 = data
    if scaled_H_minus_K_contains(H, K, y, t1):
        assert scaled_H_minus_K_contains(H, K, y, t2)


def test_plus_cone_membership_matches_hand_check(orthant2):
    H = Polytope(2, ((1, 1),))
    assert scaled_H_plus_K_contains(H, orthant2, (2, 2), 1)
    assert not scaled_H_plus_K_contains(H, orthant2, (2, 2), 5)
    assert scaled_H_plus_K_contains(H, orthant2, (0, 0), 0)


_POINT2 = Polytope(2, ((1, 1),))
_ORTHANT3 = ConeGen(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: VPolyhedralUnion(2, ()), InvalidConfigurationError,
            "the union needs at least one piece", id="union-without-pieces",
        ),
        pytest.param(
            lambda: scaled_H_plus_K_contains(_POINT2, _ORTHANT3, (1, 1), 1),
            DimensionMismatchError, "polytope and cone dimensions differ",
            id="membership",
        ),
        pytest.param(
            lambda: homogenized_generators(_POINT2, _ORTHANT3, 1),
            DimensionMismatchError, "polytope and cone dimensions differ",
            id="homogenized-generators",
        ),
        pytest.param(
            lambda: union_disjoint_from(
                VPolyhedralUnion(2, ((((0, 0),), ()),)), (0, 0), 1, _POINT2, _ORTHANT3
            ),
            DimensionMismatchError, "union, polytope, and cone dimensions differ",
            id="union-disjoint-from",
        ),
    ],
)
def test_malformed_input_raises(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


class TestValidation:
    def test_orthant_is_pointed_nontrivial(self, orthant2):
        assert is_pointed(orthant2)

    def test_line_is_not_pointed(self):
        assert not is_pointed(ConeGen(2, ((1, 0), (-1, 0))))

    def test_full_plane_is_trivial(self):
        # the whole plane holds every line, so it is not pointed either
        assert not is_pointed(ConeGen(2, ((1, 0), (-1, 0), (0, 1), (0, -1))))

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ConeGen(2, ((0, 0),))

    def test_empty_polytope_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Polytope(2, ())

    def test_union_needs_vertices(self):
        with pytest.raises(InvalidConfigurationError):
            VPolyhedralUnion(2, (((), ((1, 0),)),))


def test_random_cone_points_are_members():
    rng = random.Random(23)
    for _ in range(20):
        K, _, l = rand_cone_polytope(rng, 3, 3, 1)
        p = rand_point_in_cone(rng, K)
        assert cone_contains(K, p)
        assert dot(l, p) >= 0


class TestHalfspaces:
    def test_orthant_cone(self):
        # cone{(1, 0), (0, 1)} is the quadrant x >= 0, y >= 0
        hs = cone_halfspaces([(1, 0), (0, 1)], 2)
        assert sorted(hs.rows) == [(0, 1), (1, 0)]

    def test_ray_in_the_plane(self):
        # cone{(1, 1)}: one facet x + y >= 0, then x = y as a row and its
        # negation
        hs = cone_halfspaces([(1, 1)], 2)
        _, e, minus_e = hs.rows
        assert minus_e == tuple(-c for c in e)
        assert contains(hs, (2, 2)) and not contains(hs, (-1, -1))
        assert not contains(hs, (1, 0))

    def test_line_has_no_facet(self):
        hs = cone_halfspaces([(1, 0), (-1, 0)], 2)
        e, minus_e = hs.rows
        assert minus_e == tuple(-c for c in e)
        assert contains(hs, (-5, 0)) and not contains(hs, (0, 1))

    def test_one_vertex_H_on_a_ray(self):
        # H = {(1, 1)}, K = cone{(1, 1)}: z in t*H + K iff z = s*(1, 1), s >= t
        H, K = Polytope(2, ((1, 1),)), ConeGen(2, ((1, 1),))
        gens = homogenized_generators(H, K, 1)
        hs = cone_halfspaces(gens, len(gens[0]))
        assert contains(hs, (2, 2, 2)) and contains(hs, (3, 3, 2))
        assert not contains(hs, (1, 1, 2)) and not contains(hs, (2, 3, 2))


def _det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _brute_force_facets(gens, dim):
    """Facet normals of a full-dimensional cone(gens): the primitive
    normal of each hyperplane through dim - 1 linearly independent
    generators that has every generator on one side, oriented to it."""
    facets = set()
    for subset in itertools.combinations(gens, dim - 1):
        normal = [(-1) ** j * _det([g[:j] + g[j + 1:] for g in subset]) for j in range(dim)]
        if not any(normal):
            continue  # the subset has rank below dim - 1
        div = math.gcd(*normal)
        normal = tuple(c // div for c in normal)
        sides = {(p > 0) - (p < 0) for p in (dot(normal, g) for g in gens)} - {0}
        if len(sides) == 1:
            side = sides.pop()
            facets.add(tuple(side * c for c in normal))
    return facets


def test_facets_match_a_brute_force_reference():
    # seeded pointed cones in dimensions 2-5, with up to five generators
    # more than the dimension; the reference never looks at adjacency, so
    # a prefilter that drops an adjacent pair shows as a missing facet
    rng = random.Random(83)
    checked = facets = 0
    for _ in range(160):
        dim = rng.randint(2, 5)
        l = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(dim)]
        count = rng.randint(dim + 1, dim + 5)
        gens = []
        while len(gens) < count:
            g = tuple(rng.randint(-4, 4) for _ in range(dim))
            side = dot(l, g)
            if side:
                gens.append(g if side > 0 else tuple(-c for c in g))
        if not any(_det(list(sub)) for sub in itertools.combinations(gens, dim)):
            continue  # not full-dimensional
        hs = cone_halfspaces(gens, dim)
        assert len(set(hs.rows)) == len(hs.rows)
        assert set(hs.rows) == _brute_force_facets(gens, dim), gens
        checked += 1
        facets += len(hs.rows)
    assert checked >= 150 and facets >= 1000


@given(instance_point_scales())
@settings(max_examples=60, deadline=None)
def test_halfspaces_match_the_membership_lps(data):
    # low-rank K and one-vertex H are explicit draws; each oracle is asked
    # at t = 0, at the drawn scales, at its exact threshold and 10**-12
    # either side of it.  The cone answers through `contains`, through
    # `reaches` on row products (of y, and of y + w against w) and
    # through `scale_range`; `checked_rows` keeps its valid rows only.
    K, H, y, t1, t2 = data
    z, scale = integerize(y)
    w = tuple(range(1, len(z) + 1))
    sf = SeparationFunctional(H, K)
    # y in t*H - K from t = phi(y) up; y in t*H + K from t = -phi(-y) down
    minus_thr = evaluate(sf, y).value
    plus_thr = evaluate(sf, tuple(-c for c in y)).value
    for sign, oracle, thr in (
        (1, scaled_H_plus_K_contains, None if plus_thr is None else -plus_thr),
        (-1, scaled_H_minus_K_contains, minus_thr),
    ):
        int_gens = homogenized_generators(H, K, sign)
        hs = cone_halfspaces(int_gens, len(int_gens[0]))
        # the checks drop no row of a correct double description
        assert homogenized_halfspaces(H, K, sign) == hs
        gens = [h + (1,) for h in H.vertices]
        gens += [tuple(sign * c for c in k) + (0,) for k in K.generators]
        for g, ig in zip(gens, int_gens, strict=True):
            # each integer generator is a positive multiple of its own
            m = next(a / b for a, b in zip(ig, g) if b)
            assert m > 0 and all(a == m * b for a, b in zip(ig, g))
        for g in gens:
            assert all(dot(r, g) >= 0 for r in hs.rows)
        bad = tuple(-c for c in integerize(gens[0])[0])  # negative on gens[0]
        for given_hs in (hs, ConeHalfspaces(hs.rows + (bad,))):
            checked = checked_rows(given_hs, int_gens)
            assert isinstance(checked, ConeHalfspaces) and checked.rows == hs.rows
        at_z, at_w = hs.products(z), hs.products(w)
        at_zw = hs.products([a + b for a, b in zip(z, w)])
        zero = (0,) * len(at_z)
        assert at_zw == tuple(a + b for a, b in zip(at_z, at_w))
        in_range = hs.scale_range(at_z)
        if in_range is not None:
            # both ends of the range are members, so it is never empty
            (lo_n, lo_d), hi = in_range
            lo, hi = Fraction(lo_n, lo_d), None if hi is None else Fraction(*hi)
            for T in {lo, hi} - {None}:
                assert reaches(*hs.bounds(T), at_z, zero), (sign, T)
        scales = {Fraction(0), t1, t2}
        if thr is not None:
            scales |= {thr, thr - Fraction(1, 10**12), thr + Fraction(1, 10**12)}
        for t in scales:
            if t >= 0:
                member = oracle(H, K, y, t)
                assert contains(hs, tuple(y) + (t,)) == member, (sign, t)
                bounds = hs.bounds(t * scale)
                assert reaches(*bounds, at_z, zero) == member, (sign, t)
                assert reaches(*bounds, at_zw, at_w) == member, (sign, t)
                assert (
                    in_range is not None
                    and lo <= t * scale
                    and (hi is None or t * scale <= hi)
                ) == member, (sign, t)


class TestIntegerForms:
    def test_forms_are_integerize_once_per_value(self):
        rng = random.Random(20226)
        for _ in range(50):
            K, H, _ = rand_cone_polytope(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
            M = VPolyhedralUnion(K.dim, ((H.vertices, K.generators),))
            for forms, vectors in [
                (K.integer_generators, K.generators),
                (H.integer_vertices, H.vertices),
                (M.integer_vertices, all_vertices(M)),
                (M.integer_rays, M.all_rays()),
            ]:
                assert forms == tuple((tuple(i), d) for i, d in map(integerize, vectors))
            # cached on the instance
            assert K.integer_generators is K.integer_generators
            assert H.integer_vertices is H.integer_vertices

    def test_homogenized_generators_scale_each_vector_alone(self):
        # the same integers as integerize of (h, 1) and (k_sign * k, 0)
        rng = random.Random(20227)
        one, zero = Fraction(1), Fraction(0)
        for _ in range(50):
            K, H, _ = rand_cone_polytope(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
            for sign in (1, -1):
                gens = [h + (one,) for h in H.vertices]
                gens += [tuple(sign * c for c in k) + (zero,) for k in K.generators]
                expected = tuple(tuple(integerize(g)[0]) for g in gens)
                assert homogenized_generators(H, K, sign) == expected


class TestCertificateChecks:
    def test_rows_certify_exactly_the_vertices_outside_minus_K(self):
        # for H inside K, a vertex has a checked row of the cone over
        # t*H + K positive at it iff it is outside -K; every checked row
        # is nonnegative on K, so filtering on K again keeps them all
        rng = random.Random(20228)
        both = {True: 0, False: 0}
        for _ in range(100):
            n = rng.randint(2, 3)
            K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, 3), rng.randint(1, 3))
            if rng.random() < 0.5:
                g = rng.choice(K.generators)
                K = ConeGen(n, K.generators + (tuple(-c for c in g),))
            farkas = homogenized_halfspaces(H, K, 1)
            on_K = [k for k, _ in K.integer_generators]
            assert checked_rows(farkas, on_K) == farkas
            for v, (h, _) in zip(H.vertices, H.integer_vertices):
                outside = not cone_contains(K, tuple(-c for c in v))
                assert any(p > 0 for p in farkas.products(h)) == outside
                both[outside] += 1
        assert all(both.values()), both

    def test_rows_that_are_negative_on_K_certify_nothing(
        self, orthant2, monkeypatch
    ):
        # the double description hands out three rows, all positive at
        # (1, 1), but (-1, 2, 0) is negative at the generator (1, 0, 0) of
        # the cone over t*H + K, so the constructor drops it
        H = Polytope(2, ((1, 1),))
        rows = ((0, 1, 0), (-1, 2, 0), (1, 0, 3))
        monkeypatch.setattr(geometry, "cone_halfspaces", lambda g, d: ConeHalfspaces(rows))
        plus = homogenized_halfspaces(H, orthant2, 1)
        assert plus.rows == ((0, 1, 0), (1, 0, 3))
        assert type(plus.rows) is tuple

    @pytest.mark.parametrize(
        "y, t, weights, holds",
        [
            # (1, 1) = 1 * (1, 1) - 0: the nonnegative branch
            ((1, 1), 1, (1, 0, 0, 0), True),
            # (1, 1/2) = 1/2 * (2, 1), with t = 1/2
            ((1, Fraction(1, 2)), Fraction(1, 2), (0, Fraction(1, 2), 0, 0), True),
            # (-2, -3) = -2 * (1, 1) - (0, 1): the negative branch
            ((-2, -3), -2, (2, 0, 0, 1), True),
            # t = 0: y in -K
            ((-1, 0), 0, (0, 0, 1, 0), True),
            # sum mu is not |t|
            ((1, 1), 2, (1, 0, 0, 0), False),
            # a negative weight
            ((1, 0), 1, (1, 0, 0, -1), False),
            # the sum misses y
            ((1, 1), 1, (1, 0, 1, 0), False),
            # one weight short
            ((1, 1), 1, (1, 0, 0), False),
        ],
    )
    def test_weights_certify(self, orthant2, y, t, weights, holds):
        H = Polytope(2, ((1, 1), (2, 1)))
        assert weights_certify_scaled_H_minus_K(
            H, orthant2, tuple(map(Fraction, y)), Fraction(t), tuple(map(Fraction, weights))
        ) == holds
