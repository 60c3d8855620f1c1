"""Separation functional: worked values, algebraic laws, oracle agreement."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from polyevp import cli, scalarization
from polyevp.geometry import (
    ConeGen,
    ConeHalfspaces,
    InternalConsistencyError,
    InvalidConfigurationError,
    Polytope,
    cone_contains,
    scaled_H_minus_K_contains,
    zero_notin_H_plus_K,
)
from polyevp.lp_core import LinearProgram, LPResult
from polyevp.rational import frac_vec, integerize, vec_sub
from polyevp.scalarization import (
    BracketExhaustedError,
    ExtendedReal,
    SeparationFunctional,
    evaluate,
    evaluate_bisection,
    phi_from_rows,
    phi_lower_bound,
)

from conftest import (
    ContainsLog,
    T_MAX,
    TOL,
    instance_point_scales,
    rand_cone_polytope,
    rand_point_in_cone,
    rand_vector,
    reference_bisection,
    vec_add,
)


NEGATIVE_BRANCH_ALONE = "negative branch feasible at zero while t >= 0 branch is not"


def evaluate_closed_form(F: SeparationFunctional, y) -> ExtendedReal:
    """phi(y) by the solver's closed form, from the halfspaces of F."""
    (plus, minus), (z, scale) = F.halfspaces, integerize(frac_vec(y))
    return phi_from_rows(
        plus, plus.products([-c for c in z]), minus, minus.products(z), scale
    )


def lower_bound_from_rows(plus, minus, y) -> ExtendedReal:
    """`phi_lower_bound` of y on the given rows of the two cones."""
    z, scale = integerize(frac_vec(y))
    return phi_lower_bound(
        plus, plus.products([-c for c in z]), minus, minus.products(z), scale
    )


def without_first_facet(hs: ConeHalfspaces) -> ConeHalfspaces:
    return ConeHalfspaces(hs.rows[1:])


@pytest.fixture
def segment_functional(diagonal_segment, orthant2):
    return SeparationFunctional(diagonal_segment, orthant2)


def convex_mix(rng, vertices):
    weights = [Fraction(rng.randint(0, 4)) for _ in vertices]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    return tuple(
        sum((w * v[r] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for r in range(len(vertices[0]))
    )


class TestWorkedValues:
    def test_diagonal_point(self, segment_functional):
        assert evaluate(segment_functional, (1, 1)) == ExtendedReal.finite(1)

    def test_negative_diagonal_point(self, segment_functional):
        assert evaluate(segment_functional, (-1, -1)) == ExtendedReal.finite(-2)

    def test_origin_scores_zero(self, segment_functional):
        assert evaluate(segment_functional, (0, 0)) == ExtendedReal.finite(0)

    def test_dimension_mismatch(self, segment_functional):
        with pytest.raises(ValueError):
            evaluate(segment_functional, (1, 2, 3))
        with pytest.raises(ValueError):
            evaluate_bisection(segment_functional, (1, 2, 3), TOL, T_MAX)

    def test_unreachable_point_is_plus_infinity(self):
        sf = SeparationFunctional(Polytope(2, ((1, 0),)), ConeGen(2, ((1, 0),)))
        val = evaluate(sf, (0, 1))
        assert not val.is_finite
        # independent route: the second coordinate of t*(1,0) - s*(1,0) is
        # pinned to zero, so no grid scale ever reaches (0, 1)
        assert all(
            not _segment_oracle_contains(((1, 0),), (0, 1), Fraction(num, 4))
            for num in range(-64, 65)
        )

    def test_mixed_sign_subadditivity_violation_is_exact(self, segment_functional):
        y1, y2 = (1, 1), (-1, -1)
        v1 = evaluate(segment_functional, y1).value
        v2 = evaluate(segment_functional, y2).value
        total = evaluate(segment_functional, vec_add(y1, y2)).value
        assert (v1, v2, total) == (1, -2, 0)
        assert total > v1 + v2  # 0 > -1


def _segment_oracle_contains(h_vertices, y, t, grid=64):
    """Brute-force membership in t*conv(h) - orthant via a dense lambda grid."""
    vs = [tuple(Fraction(c) for c in v) for v in h_vertices]
    for k in range(grid + 1):
        lam = Fraction(k, grid)
        h = tuple((1 - lam) * a + lam * b for a, b in zip(vs[0], vs[-1]))
        if all(yc <= t * hc for yc, hc in zip(y, h)):
            return True
    return False


def test_lp_route_matches_dense_grid_on_the_segment(diagonal_segment, orthant2):
    from polyevp.geometry import scaled_H_minus_K_contains as lp_contains

    rng = random.Random(3)
    for _ in range(25):
        y = rand_vector(rng, 2, -6, 6, 2)
        t = Fraction(rng.randint(-12, 12), 2)
        lp_says = lp_contains(diagonal_segment, orthant2, y, t)
        grid_says = _segment_oracle_contains(diagonal_segment.vertices, y, t)
        # the grid can only under-approximate; it must never beat the LP
        assert grid_says <= lp_says
        if lp_says and not grid_says:
            # the witness mix may fall between grid nodes; a fine grid
            # finds it for this 1-parameter family
            assert _segment_oracle_contains(
                diagonal_segment.vertices, y, t, grid=4096
            )


class TestAlgebraicLaws:
    def test_positive_homogeneity_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(40):
            K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), 3, 2)
            sf = SeparationFunctional(H, K)
            y = rand_vector(rng, K.dim, -6, 6, 2)
            alpha = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            v = evaluate(sf, y)
            va = evaluate(sf, tuple(alpha * c for c in y))
            if alpha == 0:
                assert va == ExtendedReal.finite(0)
            elif v.is_finite:
                assert va == ExtendedReal.finite(alpha * v.value)
            else:
                assert not va.is_finite

    def test_cone_monotonicity_on_random_pairs(self):
        rng = random.Random(29)
        for _ in range(40):
            K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), 3, 2)
            sf = SeparationFunctional(H, K)
            y1 = rand_vector(rng, K.dim, -6, 6, 2)
            y2 = vec_add(y1, rand_point_in_cone(rng, K))  # y1 below y2
            assert evaluate(sf, y1) <= evaluate(sf, y2)

    def test_subadditive_on_strictly_negative_pairs(self):
        rng = random.Random(41)
        for _ in range(40):
            K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), 3, 2)
            sf = SeparationFunctional(H, K)
            ys = []
            for _ in range(2):
                t = -Fraction(rng.randint(1, 8), rng.randint(1, 3))
                h = convex_mix(rng, H.vertices)
                k = rand_point_in_cone(rng, K)
                ys.append(vec_sub(tuple(t * c for c in h), k))
            v1, v2 = evaluate(sf, ys[0]), evaluate(sf, ys[1])
            assert v1.value < 0 and v2.value < 0
            total = evaluate(sf, vec_add(ys[0], ys[1]))
            assert total.value <= v1.value + v2.value

    def test_subadditive_on_strictly_positive_pairs(self):
        # H - K is convex for a polytope H, so the positive-pair law holds too
        rng = random.Random(53)
        checked = 0
        for _ in range(120):
            K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), 3, 2)
            sf = SeparationFunctional(H, K)
            y1 = rand_vector(rng, K.dim, -6, 6, 2)
            y2 = rand_vector(rng, K.dim, -6, 6, 2)
            v1, v2 = evaluate(sf, y1), evaluate(sf, y2)
            if not (v1.is_finite and v2.is_finite and v1.value > 0 and v2.value > 0):
                continue
            checked += 1
            total = evaluate(sf, vec_add(y1, y2))
            assert total <= ExtendedReal.finite(v1.value + v2.value)
        assert checked >= 10

    def test_attainment_on_random_finite_values(self):
        rng = random.Random(67)
        for _ in range(40):
            K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), 3, 2)
            sf = SeparationFunctional(H, K)
            t = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            y = vec_sub(
                tuple(t * c for c in convex_mix(rng, H.vertices)),
                rand_point_in_cone(rng, K),
            )
            phi = evaluate(sf, y)
            assert phi.is_finite
            assert scaled_H_minus_K_contains(sf.H, sf.K, y, phi.value)


class TestShiftedEvaluation:
    def test_zero_shift(self, segment_functional):
        assert evaluate(segment_functional, vec_sub((3, 7), (3, 7))) == ExtendedReal.finite(0)

    def test_translation(self, segment_functional):
        assert evaluate(segment_functional, vec_sub((2, 2), (1, 1))) == ExtendedReal.finite(1)

    def test_negative_branch_through_shift(self, segment_functional):
        assert evaluate(segment_functional, vec_sub((-1, -1), (0, 0))) == ExtendedReal.finite(-2)


class TestBisection:
    def test_agrees_at_unit_threshold(self, segment_functional):
        res = evaluate_bisection(segment_functional, (1, 1), TOL, T_MAX)
        assert abs(res.value - 1) <= TOL

    def test_agrees_on_negative_branch(self, segment_functional):
        res = evaluate_bisection(segment_functional, (-1, -1), TOL, T_MAX)
        assert abs(res.value - (-2)) <= TOL

    def test_far_vertex_scores_one(self, segment_functional):
        res = evaluate_bisection(segment_functional, (1, 1), TOL, T_MAX)
        assert abs(res.value - 1) <= TOL
        # every vertex is reachable at unit scale
        for v in segment_functional.H.vertices:
            assert evaluate(segment_functional, v) <= ExtendedReal.finite(1)

    def test_unreachable_point_flagged_unconfirmed(self):
        # +inf from bisection means no feasible scale up to t_max
        sf = SeparationFunctional(Polytope(2, ((1, 0),)), ConeGen(2, ((1, 0),)))
        res = evaluate_bisection(sf, (0, 1), TOL, T_MAX)
        assert res == ExtendedReal.plus_infinity()

    def test_lower_bracket_exhaustion_is_distinct(self, diagonal_segment, orthant2):
        sf = SeparationFunctional(diagonal_segment, orthant2)
        with pytest.raises(BracketExhaustedError):
            evaluate_bisection(sf, (-8, -8), TOL, 2)  # value -16 sits beyond t_max

    @pytest.mark.parametrize(
        "tol, t_max, error",
        [
            (0, T_MAX, "must be positive"),
            ("-1/2", T_MAX, "must be positive"),
            (TOL, 0, "must be positive"),
            (TOL, -3, "must be positive"),
            ("abc", T_MAX, "is not a number"),
            (TOL, "1/0", "is not a number"),
            (None, T_MAX, "is not a number"),
            (TOL, [2], "is not a number"),
        ],
    )
    def test_bad_settings_rejected(self, segment_functional, tol, t_max, error):
        with pytest.raises((ValueError, TypeError), match=error):
            evaluate_bisection(segment_functional, (1, 1), tol, t_max)

    def test_agreement_on_random_finite_queries(self):
        rng = random.Random(79)
        for _ in range(25):
            K, H, _ = rand_cone_polytope(rng, 2, 3, 2)
            sf = SeparationFunctional(H, K)
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
            y = vec_sub(
                tuple(t * c for c in convex_mix(rng, H.vertices)),
                rand_point_in_cone(rng, K),
            )
            lp_val = evaluate(sf, y)
            bis = evaluate_bisection(sf, y, TOL, T_MAX)
            assert lp_val.is_finite and bis.is_finite
            assert abs(lp_val.value - bis.value) <= TOL


@given(instance_point_scales())
@settings(max_examples=40, deadline=None)
def test_lp_and_bisection_routes_agree_on_degenerate_shapes(data):
    # evaluate solves the two branch programs, bisection only asks the
    # fixed-scale membership oracle; low-rank K and one-vertex H included
    K, H, y, _, _ = data
    sf = SeparationFunctional(H, K)
    phi = evaluate(sf, y)
    bis = evaluate_bisection(sf, y, TOL, T_MAX)
    assert phi.is_finite == bis.is_finite
    if phi.is_finite:
        assert 0 <= bis.value - phi.value <= TOL
        assert scaled_H_minus_K_contains(sf.H, sf.K, y, phi.value)


def _lp_oracle_bisection(F, y, tol, t_max):
    """`evaluate_bisection`'s loop with every question put to the
    membership LP, a reference that never reads halfspace rows."""

    def feasible(t):
        return scaled_H_minus_K_contains(F.H, F.K, y, t)

    hi = Fraction(1)
    while not feasible(hi):
        hi *= 2
        if hi > t_max:
            return ExtendedReal.plus_infinity()
    lo = Fraction(-1)
    while feasible(lo):
        lo *= 2
        if -lo > t_max:
            raise BracketExhaustedError(f"still feasible at scale {lo}")
    while hi - lo > tol:
        mid = (hi + lo) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return ExtendedReal.finite(hi)


def _bisection_outcome(route, F, y, t_max):
    try:
        return route(F, y, TOL, t_max)
    except BracketExhaustedError:
        return "bracket exhausted"


@given(instance_point_scales())
@settings(max_examples=30, deadline=None)
def test_bisection_over_rows_matches_an_lp_oracle_bisection(data):
    # low-rank K and one-vertex H are explicit draws; y and -y cover both
    # branches, and t_max = 2 pushes values past the bracket both ways,
    # so unconfirmed +inf and an exhausted lower bracket are compared too
    K, H, y, _, _ = data
    sf = SeparationFunctional(H, K)
    for t_max in (T_MAX, Fraction(2)):
        for z in (y, tuple(-c for c in y)):
            assert _bisection_outcome(
                evaluate_bisection, sf, z, t_max
            ) == _bisection_outcome(_lp_oracle_bisection, sf, z, t_max), (K, H, z, t_max)


def _outcome(route, F, y, tol, t_max):
    """The value a bisection returns, or the message it raises."""
    try:
        return route(F, y, tol, t_max)
    except BracketExhaustedError as e:
        return f"BracketExhaustedError: {e}"


def test_integer_bisection_matches_the_fraction_reference():
    # rational tol and t_max, including a t_max below 1; y and -y, so the
    # unconfirmed +inf at t_max and an exhausted lower bracket both occur
    rng = random.Random(20260)
    kinds = set()
    for _ in range(120):
        n = rng.randint(2, 4)
        K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, n + 1), rng.randint(1, 3))
        sf = SeparationFunctional(H, K)
        if rng.random() < 0.3:
            y = rand_vector(rng, n)
        else:
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            h = convex_mix(rng, H.vertices)
            y = vec_sub(tuple(t * c for c in h), rand_point_in_cone(rng, K))
        tol = Fraction(rng.randint(1, 9), rng.choice([7, 10, 1000, 3**12]))
        t_max = rng.choice([T_MAX, Fraction(rng.randint(1, 40), rng.randint(1, 7))])
        for z in (y, tuple(-c for c in y)):
            got = _outcome(evaluate_bisection, sf, z, tol, t_max)
            assert got == _outcome(reference_bisection, sf, z, tol, t_max), (K, H, z)
            if isinstance(got, str):
                kinds.add("exhausted")
            else:
                kinds.add("finite" if got.is_finite else "+inf")
    assert kinds == {"finite", "+inf", "exhausted"}


@given(instance_point_scales())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_the_lp_route_on_degenerate_shapes(data):
    # low-rank K and one-vertex H are explicit draws; y and -y cover both
    # branches of the ratio test
    K, H, y, _, _ = data
    sf = SeparationFunctional(H, K)
    for z in (y, tuple(-c for c in y)):
        assert evaluate_closed_form(sf, z) == evaluate(sf, z)


class TestClosedForm:
    def test_worked_values(self, segment_functional):
        for y in [(1, 1), (-1, -1), (0, 0), (3, 2), (-5, 1), ("1/3", "-2/7")]:
            assert evaluate_closed_form(segment_functional, y) == evaluate(
                segment_functional, y
            )

    def test_every_kind_of_value_matches_the_lp_route(self):
        # dimensions 2-4, with fewer generators than the dimension and
        # one-vertex H among the draws; the lower bound is phi on the
        # exact rows, and at most phi, or absent, with a facet of either
        # cone left out
        rng = random.Random(61)
        kinds = set()
        below = 0
        for _ in range(120):
            n = rng.randint(2, 4)
            n_gens, n_verts = rng.randint(1, n + 1), rng.randint(1, 3)
            K, H, _ = rand_cone_polytope(rng, n, n_gens, n_verts)
            sf = SeparationFunctional(H, K)
            for _ in range(4):
                if rng.random() < 0.3:
                    y = rand_vector(rng, n)
                else:
                    t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    h = convex_mix(rng, H.vertices)
                    y = vec_sub(tuple(t * c for c in h), rand_point_in_cone(rng, K))
                phi = evaluate(sf, y)
                assert evaluate_closed_form(sf, y) == phi, (K, H, y)
                plus, minus = sf.halfspaces
                assert lower_bound_from_rows(plus, minus, y) == phi
                for cut in (
                    (without_first_facet(plus), minus),
                    (plus, without_first_facet(minus)),
                ):
                    bound = lower_bound_from_rows(*cut, y)
                    assert bound is None or not phi < bound, (K, H, y)
                    below += bound is None or bound < phi
                if not phi.is_finite:
                    kinds.add("+inf")
                else:
                    kinds.add("negative" if phi.value < 0 else "nonnegative")
        assert kinds == {"+inf", "negative", "nonnegative"}
        assert below > 0


class TestConfigurationGuards:
    def test_vertex_outside_cone_rejected(self, orthant2):
        with pytest.raises(ValueError):
            SeparationFunctional(Polytope(2, ((-1, 0),)), orthant2)

    def test_dimension_mismatch_rejected(self, orthant2):
        with pytest.raises(ValueError, match="^H and K dimensions differ$"):
            SeparationFunctional(Polytope(3, ((1, 1, 1),)), orthant2)

    def test_origin_inside_sum_rejected(self, orthant2):
        with pytest.raises(ValueError):
            SeparationFunctional(Polytope(2, ((0, 0),)), orthant2)

    def test_vertex_checks_decide_the_origin(self):
        # H's vertices are drawn inside K, half the cones carry a line: the
        # origin lies in H + K exactly when some vertex lies in -K, so the
        # vertex checks reject exactly the pairs the origin LP would
        rng = random.Random(20171)
        draws, rejected = 200, 0
        for _ in range(draws):
            n, count = rng.randint(1, 3), rng.randint(1, 3)
            gens = []
            while len(gens) < count:
                g = rand_vector(rng, n, -3, 3, 2)
                if any(g):
                    gens.append(g)
            if rng.random() < 0.5:
                gens.append(tuple(-c for c in rng.choice(gens)))
            K = ConeGen(n, tuple(gens))
            H = Polytope(n, tuple(
                tuple(sum(w * g[i] for w, g in zip(ws, gens)) for i in range(n))
                for ws in (
                    [rng.randint(0, 2) for _ in gens] for _ in range(rng.randint(1, 3))
                )
            ))
            in_minus_k = any(cone_contains(K, tuple(-c for c in v)) for v in H.vertices)
            assert in_minus_k == (not zero_notin_H_plus_K(H, K))
            try:
                SeparationFunctional(H, K)
            except InvalidConfigurationError:
                assert in_minus_k
                rejected += 1
            else:
                assert not in_minus_k
        assert 0 < rejected < draws

    @pytest.mark.parametrize(
        "vertices, y, message",
        [
            # 0 sits in H + K, so the negative branch is unbounded
            pytest.param(
                ((1, 1), (-1, -1)), (5, 5),
                "negative branch unbounded despite origin-separation invariant",
                id="unbounded-negative-branch",
            ),
            # -y = h lies in 1*H + K, so t = -1 is feasible, yet no t >= 0
            # has y in t*H - K: H is not inside K
            pytest.param(
                ((1, -1),), (-1, 1),
                "scale feasibility failed to be upward closed",
                id="not-upward-closed",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "route", [evaluate, evaluate_closed_form], ids=["lp", "closed-form"]
    )
    def test_broken_invariant_is_reported_as_internal(
        self, orthant2, vertices, y, message, route
    ):
        # forge an invalid functional; construction would reject it, so
        # bypass it
        bad = SeparationFunctional.__new__(SeparationFunctional)
        object.__setattr__(bad, "H", Polytope(2, vertices))
        object.__setattr__(bad, "K", orthant2)
        with pytest.raises(InternalConsistencyError) as caught:
            route(bad, y)
        assert str(caught.value) == message

    def test_rows_with_only_the_negative_branch_at_zero(self):
        # hand-built rows (a_z, a_t) in dimension 1: the cone over t*H + K
        # is -t >= 0, so it allows only s = 0 at -z; the cone over t*H - K
        # is z >= 0, so it allows no t >= 0 at z = -1
        plus, minus = ConeHalfspaces(((0, -1),)), ConeHalfspaces(((1, 0),))
        at_minus_z, at_z = plus.products((1,)), minus.products((-1,))
        assert plus.scale_range(at_minus_z) == ((0, 1), (0, 1))
        assert minus.scale_range(at_z) is None
        with pytest.raises(InternalConsistencyError) as caught:
            phi_from_rows(plus, at_minus_z, minus, at_z, 1)
        assert str(caught.value) == NEGATIVE_BRANCH_ALONE

    def test_lps_with_only_the_negative_branch_at_zero(
        self, segment_functional, tmp_path, monkeypatch, capsys
    ):
        def one_sided(lp):
            # the t < 0 branch is the program costing each vertex weight -1
            if lp.objective[0] < 0:
                return LPResult("feasible", Fraction(0))
            return LPResult("infeasible")

        monkeypatch.setattr(scalarization, "solve", one_sided)
        with pytest.raises(InternalConsistencyError) as caught:
            evaluate(segment_functional, (1, 1))
        assert str(caught.value) == NEGATIVE_BRANCH_ALONE
        # the scalarize command reports the failure with exit code 3
        doc = {
            "dimension": 2,
            "cone": {"generators": [[1, 0], [0, 1]]},
            "H": {"vertices": [[1, 1], ["1/2", "1/2"]]},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["scalarize", str(path), "--point", "1,1"]) == 3
        assert capsys.readouterr().out == (
            f"internal consistency failure: {NEGATIVE_BRANCH_ALONE}\n"
        )


def test_extended_real_total_order():
    inf = ExtendedReal.plus_infinity()
    one = ExtendedReal.finite(1)
    assert one < inf
    assert not inf < inf
    assert inf <= inf
    assert min(inf, one) == one
    assert str(inf) == "+inf" and str(one) == "1"


def _branch_lps_by_rows(F: SeparationFunctional, y) -> list[LinearProgram]:
    """`evaluate`'s two programs written out row by row, columns mu for
    H's vertices then the weights of K's generators: t < 0 as
    -y = sum mu h + sum w k minimizing -sum mu, then t >= 0 as
    y = sum mu h - sum w k minimizing sum mu."""
    p, m = len(F.H.vertices), len(F.K.generators)

    def program(target, k_sign, cost):
        rows = tuple(
            tuple(h[r] for h in F.H.vertices) + tuple(k_sign * g[r] for g in F.K.generators)
            for r in range(F.H.dim)
        )
        objective = (Fraction(cost),) * p + (Fraction(0),) * m
        return LinearProgram(p + m, rows, tuple(target), objective)

    yv = frac_vec(y)
    return [program(tuple(-c for c in yv), 1, -1), program(yv, -1, 1)]


def test_evaluate_builds_the_row_by_row_programs(monkeypatch):
    # equal programs give equal pivots; the t < 0 branch's value is phi
    # itself whenever that branch decides
    from polyevp import scalarization

    seen = []
    solve = scalarization.solve

    def spy(lp):
        seen.append(lp)
        return solve(lp)

    monkeypatch.setattr(scalarization, "solve", spy)
    rng = random.Random(20170819)
    negative = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, n + 1), rng.randint(1, 3))
        sf = SeparationFunctional(H, K)
        if rng.random() < 0.3:
            y = rand_vector(rng, n)
        else:
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            h = convex_mix(rng, H.vertices)
            y = vec_sub(tuple(t * c for c in h), rand_point_in_cone(rng, K))
        seen.clear()
        phi = evaluate(sf, y)
        assert seen == _branch_lps_by_rows(sf, y), (K, H, y)
        negative += phi.is_finite and phi.value < 0
    assert negative > 0


def _vertex_loop_message(H: Polytope, K: ConeGen):
    """The message of the first failing vertex check, asked per vertex
    in order by LP: "in K", then "not in -K"; None when all pass."""
    for v in H.vertices:
        if not cone_contains(K, v):
            return f"H vertex {tuple(map(str, v))} lies outside the cone"
        if cone_contains(K, tuple(-c for c in v)):
            return f"H vertex {tuple(map(str, v))} lies in -K"
    return None


def _with_a_line(rng, K: ConeGen) -> ConeGen:
    """K plus the negation of one of its generators, so K meets -K in a line."""
    g = rng.choice(K.generators)
    return ConeGen(K.dim, K.generators + (tuple(-c for c in g),))


def _outside(rng, K: ConeGen):
    """A point outside K, or None when the draws find none."""
    for _ in range(20):
        v = rand_vector(rng, K.dim)
        if any(v) and not cone_contains(K, v):
            return v
    return None


class TestVertexChecks:
    def test_bad_vertices_raise_the_per_vertex_loop_message(self):
        # vertices outside K, in -K, and in K cap -K, mixed into a valid H
        # in random order: construction raises what the loop would
        rng = random.Random(20223)
        seen = {"valid": 0, "outside the cone": 0, "in -K": 0}
        for _ in range(150):
            n = rng.randint(2, 3)
            K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, 3), rng.randint(1, 3))
            if rng.random() < 0.5:
                K = _with_a_line(rng, K)
            verts = list(H.vertices)
            kinds = {
                "outside": _outside(rng, K),
                "in -K": tuple(-c for c in rand_point_in_cone(rng, K)),
                "in K cap -K": tuple(2 * c for c in K.generators[-1]),
            }
            for kind, v in kinds.items():
                if v is not None and any(v) and rng.random() < 0.4:
                    verts.insert(rng.randint(0, len(verts)), v)
            H = Polytope(n, tuple(verts))
            expected = _vertex_loop_message(H, K)
            if expected is None:
                SeparationFunctional(H, K)
                seen["valid"] += 1
                continue
            with pytest.raises(InvalidConfigurationError) as caught:
                SeparationFunctional(H, K)
            assert str(caught.value) == expected, (H, K)
            seen["in -K" if expected.endswith("-K") else "outside the cone"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("drop", [False, True], ids=["honest", "dropped-facet"])
    def test_a_valid_functional_runs_lps_only_where_the_walk_fails(self, drop, monkeypatch):
        # per vertex h, in order, "h in K" and then "-h in K" are asked of
        # `ConeHalfspaces.contains` on the cone over t*H + K, and each runs
        # one LP exactly when the walk leaves it open: none on honest rows.
        # Every answer is `cone_contains`'s.
        from polyevp import geometry

        if drop:
            honest = geometry.cone_halfspaces
            monkeypatch.setattr(
                geometry, "cone_halfspaces", lambda g, d: without_first_facet(honest(g, d))
            )
        log = ContainsLog(monkeypatch)
        rng = random.Random(20224)
        left_open = 0
        for _ in range(100):
            n = rng.randint(2, 4)
            K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, n + 1), rng.randint(1, 3))
            del log.calls[:]
            log.lps = 0
            plus = SeparationFunctional(H, K).halfspaces[0]
            expected = []
            for v, (h, _) in zip(H.vertices, H.integer_vertices):
                at_h = plus.products(h)
                expected += [
                    (plus, (h, at_h, 0, 1), True),
                    (plus, ([-c for c in h], [-c for c in at_h], 0, 1), False),
                ]
            assert [(hs, args, answer) for hs, args, answer, *_ in log.calls] == expected
            left_open += log.assert_one_lp_per_open_question()
            assert all(
                cone_contains(K, v) and not cone_contains(K, tuple(-c for c in v))
                for v in H.vertices
            )
        assert (left_open > 0) == drop


def test_every_finite_value_is_attained():
    rng = random.Random(20225)
    signs = {"negative": 0, "nonnegative": 0}
    for _ in range(150):
        n = rng.randint(2, 4)
        K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, n + 1), rng.randint(1, 3))
        F = SeparationFunctional(H, K)
        if rng.random() < 0.3:
            y = rand_vector(rng, n)
        else:
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            h = convex_mix(rng, H.vertices)
            y = vec_sub(tuple(t * c for c in h), rand_point_in_cone(rng, K))
        phi = evaluate(F, y)
        if phi.is_finite:
            assert scaled_H_minus_K_contains(H, K, y, phi.value), (H, K, y)
            signs["negative" if phi.value < 0 else "nonnegative"] += 1
    assert all(signs.values()), signs
