"""LP oracle: status correctness, witness re-check, backend agreement."""

import math
import random
from fractions import Fraction

import pytest

from polyevp.lp_core import (
    EXACT,
    FLOAT,
    LinearProgram,
    LPFormatError,
    _integerize,
    check_witness,
    float_backend,
    solve,
)


def test_min_over_nonnegative_ray_hits_zero():
    lp = LinearProgram.optimize([1], "min", [], [], [True])
    res = solve(lp)
    assert res.status == "feasible"
    assert res.value == 0
    assert res.witness == (Fraction(0),)


def test_empty_box_is_infeasible():
    # x >= 0 and x <= -1, with the upper bound written as x + s = -1
    lp = LinearProgram.feasibility([[1, 1]], [-1], [True, True])
    assert solve(lp).status == "infeasible"


def test_max_over_nonnegative_ray_is_unbounded():
    lp = LinearProgram.optimize([1], "max", [], [], [True])
    assert solve(lp).status == "unbounded"


def test_zero_variable_programs():
    assert solve(LinearProgram.feasibility([], [], [])).status == "feasible"
    assert solve(LinearProgram.feasibility([], [], [])).witness == ()
    assert solve(LinearProgram.feasibility([[], []], [0, 0], [])).status == "feasible"
    # a contradictory row stays infeasible even with no variables
    assert solve(LinearProgram.feasibility([[]], [1], [])).status == "infeasible"


def test_free_variable_optimum_and_split_roundtrip():
    lp = LinearProgram.optimize([1], "min", [[1]], [-5], [False])
    res = solve(lp)
    assert res.status == "feasible"
    assert res.witness == (Fraction(-5),)
    assert res.value == -5


def test_free_variable_unconstrained_is_unbounded():
    assert solve(LinearProgram.optimize([1], "min", [], [], [False])).status == "unbounded"


def test_malformed_dimensions_raise():
    with pytest.raises(LPFormatError):
        LinearProgram(n_vars=2, rows=((Fraction(1),),), rhs=(Fraction(0),),
                      nonneg=(True, True))
    with pytest.raises(LPFormatError):
        LinearProgram(n_vars=1, rows=(), rhs=(), nonneg=(True, True))
    with pytest.raises(LPFormatError):
        LinearProgram(n_vars=1, rows=(), rhs=(), nonneg=(True,), sense="min")
    with pytest.raises(LPFormatError):
        LinearProgram(
            n_vars=1, rows=(), rhs=(), nonneg=(True,),
            objective=(Fraction(1),), sense="feasibility",
        )


def test_classic_degenerate_cycling_instance_terminates():
    # Beale's cycling tableau; Bland's rule must reach the optimum -1/20.
    rows = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    rhs = [0, 0, 1]
    obj = [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0]
    lp = LinearProgram.optimize(obj, "min", rows, rhs, [True] * 7)
    res = solve(lp)
    assert res.status == "feasible"
    assert res.value == Fraction(-1, 20)


def test_witness_recheck_exact_and_float():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        rows = [
            [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(m)]
        nonneg = [rng.random() < 0.8 for _ in range(n)]
        obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        lp = LinearProgram.optimize(obj, rng.choice(["min", "max"]), rows, rhs, nonneg)
        res = solve(lp, EXACT)
        if res.status == "feasible":
            assert check_witness(lp, res.witness)
        fres = solve(lp, FLOAT)
        if fres.status == "feasible":
            assert check_witness(lp, fres.witness, tol=1e-6)


def test_backends_agree_when_not_marginal():
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-6, 6)) for _ in range(m)]
        nonneg = [rng.random() < 0.7 for _ in range(n)]
        if rng.random() < 0.5:
            lp = LinearProgram.feasibility(rows, rhs, nonneg)
        else:
            obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            lp = LinearProgram.optimize(obj, rng.choice(["min", "max"]), rows, rhs, nonneg)
        exact = solve(lp, EXACT)
        approx = solve(lp, FLOAT)
        if approx.marginal:
            continue
        checked += 1
        assert exact.status == approx.status, (lp, exact, approx)
        if exact.status == "feasible" and lp.sense != "feasibility":
            assert abs(float(exact.value) - approx.value) <= 1e-6 * (
                1 + abs(float(exact.value))
            )
    assert checked > 60  # the agreement claim should not be vacuous


def test_float_tolerance_parameter_validates():
    with pytest.raises(ValueError):
        float_backend(0.0)
    with pytest.raises(ValueError):
        float_backend(2.0)


def test_integerize_matches_fraction_products():
    rng = random.Random(5)
    assert _integerize([]) == []
    for _ in range(300):
        row = [
            Fraction(rng.choice([0, rng.randint(-50, 50)]), rng.randint(1, 12))
            for _ in range(rng.randint(1, 9))
        ]
        lcm = math.lcm(*(v.denominator for v in row))
        assert _integerize(row) == [int(v * lcm) for v in row]


def test_free_variable_with_negative_fractions_has_exact_witness():
    # x0 free, x1, x2 >= 0; the second row pins x0 = -8/15 when x1 = 0
    rows = [
        [Fraction(-3, 7), Fraction(2, 5), Fraction(-1, 3)],
        [Fraction(5, 4), Fraction(-7, 6), 0],
    ]
    rhs = [Fraction(-11, 9), Fraction(-2, 3)]
    obj = [Fraction(-1, 2), Fraction(3, 8), Fraction(5, 11)]
    lp = LinearProgram.optimize(obj, "max", rows, rhs, [False, True, True])
    res = solve(lp, EXACT)
    assert res.status == "feasible"
    assert check_witness(lp, res.witness, tol=0)
    assert res.witness == (Fraction(-8, 15), 0, Fraction(457, 105))
    assert res.value == sum(c * x for c, x in zip(lp.objective, res.witness))
