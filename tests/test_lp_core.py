"""LP oracle: status correctness, witness re-check, brute-force reference."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from polyevp.lp_core import (
    LinearProgram,
    LPFormatError,
    LPResult,
    _Tableau,
    combination_lp,
    solve,
)
from polyevp.rational import frac_vec, integerize

from conftest import reference_combination_rows


class General:
    """A program with free variables (``nonneg`` False) and a sense of
    "min", "max" or "feasibility", solved through its standard form.

    `lp` writes each free variable as x+ - x-, its two columns side by
    side, and negates a max objective; `solve` maps the witness and the
    value back.
    """

    def __init__(self, rows, rhs, nonneg, objective=None, sense="feasibility"):
        self.n_vars = len(nonneg)
        self.rows = tuple(frac_vec(r) for r in rows)
        self.rhs = frac_vec(rhs)
        self.nonneg = tuple(nonneg)
        self.objective = None if objective is None else frac_vec(objective)
        self.sense = sense
        # (variable, sign) of each standard-form column
        self.columns = [
            (j, s) for j, nn in enumerate(self.nonneg) for s in ((1,) if nn else (1, -1))
        ]
        self.sign = -1 if sense == "max" else 1

    @property
    def lp(self) -> LinearProgram:
        cols = self.columns
        return LinearProgram(
            n_vars=len(cols),
            rows=tuple(tuple(s * row[j] for j, s in cols) for row in self.rows),
            rhs=self.rhs,
            objective=None if self.sense == "feasibility" else tuple(
                self.sign * s * self.objective[j] for j, s in cols
            ),
        )

    def solve(self) -> LPResult:
        res = solve(self.lp)
        if not res.is_feasible:
            return res
        x = [Fraction(0)] * self.n_vars
        for (j, s), v in zip(self.columns, res.witness):
            x[j] += s * v
        return LPResult(status="feasible", value=self.sign * res.value, witness=tuple(x))


def check_witness(lp: General, witness) -> bool:
    """Re-check a witness exactly against every constraint."""
    return (
        len(witness) == lp.n_vars
        and all(x >= 0 for x, nn in zip(witness, lp.nonneg) if nn)
        and all(
            sum(a * x for a, x in zip(row, witness)) == b
            for row, b in zip(lp.rows, lp.rhs)
        )
    )


def test_min_over_nonnegative_ray_hits_zero():
    res = solve(LinearProgram(n_vars=1, rows=(), rhs=(), objective=(1,)))
    assert res.status == "feasible"
    assert res.value == 0
    assert res.witness == (Fraction(0),)


def test_empty_box_is_infeasible():
    # x >= 0 and x <= -1, with the upper bound written as x + s = -1
    lp = LinearProgram(n_vars=2, rows=((1, 1),), rhs=(-1,))
    assert solve(lp).status == "infeasible"


def test_max_over_nonnegative_ray_is_unbounded():
    assert General([], [], [True], [1], "max").solve().status == "unbounded"


def test_zero_variable_programs():
    assert solve(LinearProgram(0, (), ())).status == "feasible"
    assert solve(LinearProgram(0, (), ())).witness == ()
    assert solve(LinearProgram(0, ((), ()), (0, 0))).status == "feasible"
    # a contradictory row stays infeasible even with no variables
    assert solve(LinearProgram(0, ((),), (1,))).status == "infeasible"


def test_free_variable_optimum_and_split_roundtrip():
    res = General([[1]], [-5], [False], [1], "min").solve()
    assert res.status == "feasible"
    assert res.witness == (Fraction(-5),)
    assert res.value == -5


def test_free_variable_unconstrained_is_unbounded():
    assert General([], [], [False], [1], "min").solve().status == "unbounded"


def test_malformed_dimensions_raise():
    with pytest.raises(LPFormatError):
        LinearProgram(n_vars=2, rows=((Fraction(1),),), rhs=(Fraction(0),))
    with pytest.raises(LPFormatError):
        LinearProgram(n_vars=1, rows=(), rhs=(), objective=(Fraction(1), Fraction(0)))
    with pytest.raises(LPFormatError, match="^negative variable count$"):
        LinearProgram(-1, (), ())
    with pytest.raises(LPFormatError, match="^1 rows but 0 right-hand sides$"):
        LinearProgram(1, ((1,),), ())


def test_classic_degenerate_cycling_instance_terminates():
    # Beale's cycling tableau; Bland's rule must reach the optimum -1/20.
    rows = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    rhs = [0, 0, 1]
    obj = [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0]
    res = solve(LinearProgram(7, tuple(map(frac_vec, rows)), frac_vec(rhs), frac_vec(obj)))
    assert res.status == "feasible"
    assert res.value == Fraction(-1, 20)


def _lps_seed_7():
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
        yield General(rows, rhs, nonneg, obj, rng.choice(["min", "max"]))


def _lps_seed_99():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-6, 6)) for _ in range(m)]
        nonneg = [rng.random() < 0.7 for _ in range(n)]
        if rng.random() < 0.5:
            yield General(rows, rhs, nonneg)
        else:
            obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            yield General(rows, rhs, nonneg, obj, rng.choice(["min", "max"]))


def test_witness_recheck_exact():
    for lp in _lps_seed_7():
        res = lp.solve()
        if res.status == "feasible":
            assert check_witness(lp, res.witness)


# ---------------------------------------------------------------------------
# brute-force reference: enumerate basic solutions
# ---------------------------------------------------------------------------


def _solve_columns(cols, b):
    """x with sum x_j cols[j] == b, when cols are linearly independent and
    the system is consistent; None otherwise.  Fraction Gauss-Jordan."""
    m, k = len(b), len(cols)
    aug = [[cols[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    r = 0
    for j in range(k):
        p = next((i for i in range(r, m) if aug[i][j] != 0), None)
        if p is None:
            return None  # column j depends on the earlier ones
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [e / aug[r][j] for e in aug[r]]
        for i in range(m):
            if i != r and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [a - f * e for a, e in zip(aug[i], aug[r])]
        r += 1
    if any(row[-1] != 0 for row in aug[r:]):
        return None
    return [aug[j][-1] for j in range(k)]


def _basic_feasible_solutions(A, b, n):
    """Every x >= 0 in Q^n with A x == b supported on linearly independent
    columns.

    A standard-form polyhedron {x >= 0 : A x = b} is pointed, so it is
    empty exactly when this yields nothing, and a linear objective
    bounded below on it attains its minimum at one of these points.
    """
    cols = [tuple(row[j] for row in A) for j in range(n)]
    for k in range(min(len(b), n) + 1):
        for support in itertools.combinations(range(n), k):
            xs = _solve_columns([cols[j] for j in support], b)
            if xs is not None and all(v >= 0 for v in xs):
                x = [Fraction(0)] * n
                for j, v in zip(support, xs):
                    x[j] = v
                yield x


def _reference(lp):
    """(status, optimal value) of ``lp`` by enumeration; no simplex."""
    # split each free variable into a difference of nonnegative parts
    split = [(j, 1) for j in range(lp.n_vars)]
    split += [(j, -1) for j in range(lp.n_vars) if not lp.nonneg[j]]
    A = [[s * row[j] for j, s in split] for row in lp.rows]
    points = list(_basic_feasible_solutions(A, list(lp.rhs), len(split)))
    if not points:
        return "infeasible", None
    if lp.sense == "feasibility":
        return "feasible", 0
    sign = 1 if lp.sense == "min" else -1
    c = [sign * s * lp.objective[j] for j, s in split]
    # unbounded iff some direction d >= 0 with A d = 0 has c . d = -1
    rays = _basic_feasible_solutions(A + [c], [0] * len(A) + [-1], len(split))
    if next(rays, None) is not None:
        return "unbounded", None
    best = min(sum(ci * xi for ci, xi in zip(c, x)) for x in points)
    return "feasible", sign * best


def test_status_and_value_match_basic_solution_enumeration():
    statuses = []
    for lp in itertools.chain(_lps_seed_99(), _lps_seed_7()):
        res = lp.solve()
        status, value = _reference(lp)
        assert res.status == status, lp
        if status == "feasible":
            assert res.value == value, lp
            assert check_witness(lp, res.witness), lp
        statuses.append(status)
    assert len(statuses) == 180
    assert {"feasible", "infeasible", "unbounded"} <= set(statuses)


def _gauss_jordan(rows, basis):
    """The Fraction tableau of ``rows`` for the nonsingular column set
    ``basis``: a dict from each basic column to its row, which holds 1 in
    that column and 0 in every other basic column."""
    rows = [[Fraction(e) for e in row] for row in rows]
    free, of = set(range(len(rows))), {}
    for b in basis:
        r = next(r for r in free if rows[r][b])
        free.discard(r)
        rows[r] = [e / rows[r][b] for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[b]:
                f = row[b]
                rows[i] = [a - f * e for a, e in zip(row, rows[r])]
        of[b] = r
    return {b: rows[r] for b, r in of.items()}


# Pivot counts do not depend on the machine, so they gate regressions,
# and Bland's rule must make the same choices on every run.  Recorded when
# the crash start came in: rows that start on a singleton column skip
# their phase-1 pivots, so the count fell from 201 (an artificial in
# every row) to 147, with every status and value unchanged.
SEED_PIVOTS = 147
SEED_PIVOT_DIGEST = "5512a08bafe00885f1426e72806d128fb04d63cb9d48b2ba4cefa28d90077ce6"


def test_pivots_and_determinant_invariant(monkeypatch):
    pivots = []
    start = {}  # tableau -> (its loaded rows, basis after the last pivot, dropped)
    set_objective, pivot = _Tableau.set_objective, _Tableau.pivot

    def recording_set_objective(tab, costs):
        start.setdefault(tab, ([list(r) for r in tab.rows], list(tab.basis), []))
        set_objective(tab, costs)

    def checked_pivot(tab, p, q):
        pivots.append((p, q))
        rows0, basis, dropped = start[tab]
        # a basic column gone without a pivot is a redundant row's
        # artificial, deleted by the drive-out
        dropped += [b for b in basis if b not in tab.basis]
        pivot(tab, p, q)
        det = tab.det
        assert det > 0
        for i, b in enumerate(tab.basis):
            assert [row[b] for row in tab.rows] == [
                det if k == i else 0 for k in range(len(tab.rows))
            ]
        reference = _gauss_jordan(rows0, tab.basis + dropped)
        for row, b in zip(tab.rows, tab.basis):
            assert [Fraction(e, det) for e in row] == reference[b]
        start[tab] = (rows0, list(tab.basis), dropped)

    monkeypatch.setattr(_Tableau, "set_objective", recording_set_objective)
    monkeypatch.setattr(_Tableau, "pivot", checked_pivot)
    for lp in itertools.chain(_lps_seed_99(), _lps_seed_7()):
        solve(lp.lp)
    assert len(pivots) == SEED_PIVOTS
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == SEED_PIVOT_DIGEST
    # phase 1 pivots row 1; the drive-out drops the redundant row 0, then
    # pivots a negative entry of the last row, whose reference tableau
    # needs the dropped artificial.  No column is a singleton, so every
    # row starts on its artificial.
    lp = LinearProgram(3, ((-1, -1, -1), (1, 1, 1), (1, -1, -1)), (0, 0, 0))
    assert solve(lp).status == "feasible"
    assert pivots[SEED_PIVOTS:] == [(1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# the crash start: rows that begin basic on a singleton column
# ---------------------------------------------------------------------------


def _solve_from_start(monkeypatch, lp):
    """(result, starting basis, loaded rows, pivots) of one solve.  The
    start is read at the first objective, which every program given an
    objective sets."""
    start, pivots = [], []
    set_objective, pivot = _Tableau.set_objective, _Tableau.pivot

    def recording_set_objective(tab, costs):
        if not start:
            start.append((list(tab.basis), [list(r) for r in tab.rows]))
        set_objective(tab, costs)

    def recording_pivot(tab, p, q):
        pivots.append((p, q))
        pivot(tab, p, q)

    monkeypatch.setattr(_Tableau, "set_objective", recording_set_objective)
    monkeypatch.setattr(_Tableau, "pivot", recording_pivot)
    res = solve(lp)
    monkeypatch.undo()
    return res, start[0][0], start[0][1], pivots


def _agrees_with_enumeration(lp, res):
    general = General(lp.rows, lp.rhs, [True] * lp.n_vars, lp.objective, "min")
    status, value = _reference(general)
    if status != "feasible":
        return res.status == status
    return res.value == value and check_witness(general, res.witness)


def test_crash_flips_a_row_with_a_negative_entry_on_a_zero_rhs(monkeypatch):
    # column 2 appears only in row 1, at -1 with rhs 0: the row is negated
    # and starts on column 2; row 0 has no singleton and keeps its artificial
    lp = LinearProgram(3, ((1, 1, 0), (1, -1, -1)), (2, 0), (1, 0, 0))
    res, basis, rows, _ = _solve_from_start(monkeypatch, lp)
    assert basis == [3, 2]
    assert rows == [[1, 1, 0, 1, 2], [-1, 1, 1, 0, 0]]
    assert res.witness == (1, 1, 0) and res.value == 1
    assert _agrees_with_enumeration(lp, res)


def test_crash_leaves_a_negative_entry_on_a_positive_rhs(monkeypatch):
    # column 2 is a singleton of row 1, but at -1 against rhs 2 it would
    # start negative, so both rows start on artificials
    lp = LinearProgram(3, ((1, 1, 0), (1, 2, -1)), (4, 2), (0, 0, 1))
    res, basis, rows, _ = _solve_from_start(monkeypatch, lp)
    assert basis == [3, 4]
    assert rows == [[1, 1, 0, 1, 0, 4], [1, 2, -1, 0, 1, 2]]
    assert res.witness == (4, 0, 2) and res.value == 2
    assert _agrees_with_enumeration(lp, res)


def test_crash_takes_the_first_of_two_singletons_in_a_row(monkeypatch):
    # columns 1 and 2 are both singletons of row 0; column 1, the first,
    # starts basic, scaled from 2 to 1, and column 3 in row 1, so no row
    # needs an artificial and phase 1 does not run
    lp = LinearProgram(4, ((1, 2, 5, 0), (1, 0, 0, 1)), (10, 3), (-1, 1, 1, 0))
    res, basis, rows, pivots = _solve_from_start(monkeypatch, lp)
    assert basis == [1, 3]
    assert rows == [[1, 1, 5, 0, 10], [1, 0, 0, 1, 3]]
    # phase 2 moves x0 into row 1, then x2 for x1 in row 0
    assert pivots == [(1, 0), (0, 2)]
    assert res.witness == (3, 0, Fraction(7, 5), 0) and res.value == Fraction(-8, 5)
    assert _agrees_with_enumeration(lp, res)


def test_crash_maps_a_scaled_column_back_exactly(monkeypatch):
    # row 0 loads as 6 x0 + 4 x1 = 5 and starts on x0' = 6 x0; row 1 loads
    # as -3 x1 + 7 x2 = 0 after its flip and starts on x2' = 7 x2
    rows = (frac_vec([Fraction(3, 2), 1, 0]), frac_vec([0, 1, Fraction(-7, 3)]))
    rhs, objective = frac_vec([Fraction(5, 4), 0]), frac_vec([2, -1, Fraction(1, 2)])
    lp = LinearProgram(3, rows, rhs, objective)
    res, basis, loaded, _ = _solve_from_start(monkeypatch, lp)
    assert basis == [0, 2]
    assert loaded == [[1, 4, 0, 5], [0, -3, 1, 0]]
    assert res.witness == (0, Fraction(5, 4), Fraction(15, 28))
    assert res.value == Fraction(-55, 56)
    assert _agrees_with_enumeration(lp, res)
    # a basic scaled column is mapped back too: x0 = 2/3, with no pivot
    lp = LinearProgram(2, ((3, 1),), (2,), (0, 1))
    res, basis, _, pivots = _solve_from_start(monkeypatch, lp)
    assert basis == [0] and pivots == []
    assert res.witness == (Fraction(2, 3), 0) and res.value == 0


def test_crash_with_no_rows(monkeypatch):
    res, basis, rows, pivots = _solve_from_start(
        monkeypatch, LinearProgram(2, (), (), (1, 2))
    )
    assert (basis, rows, pivots) == ([], [], [])
    assert res.witness == (0, 0) and res.value == 0
    assert solve(LinearProgram(2, (), (), (0, -1))).status == "unbounded"
    assert solve(LinearProgram(2, (), ())).witness == (0, 0)


def test_integerize_matches_fraction_products():
    rng = random.Random(5)
    assert integerize([]) == ([], 1)
    for _ in range(300):
        row = [
            Fraction(rng.choice([0, rng.randint(-50, 50)]), rng.randint(1, 12))
            for _ in range(rng.randint(1, 9))
        ]
        lcm = math.lcm(*(v.denominator for v in row))
        ints, den = integerize(row)
        assert den == lcm and ints == [int(v * lcm) for v in row]
        assert [Fraction(n, den) for n in ints] == row


def test_free_variable_with_negative_fractions_has_exact_witness():
    # x0 free, x1, x2 >= 0; the second row pins x0 = -8/15 when x1 = 0
    rows = [
        [Fraction(-3, 7), Fraction(2, 5), Fraction(-1, 3)],
        [Fraction(5, 4), Fraction(-7, 6), 0],
    ]
    rhs = [Fraction(-11, 9), Fraction(-2, 3)]
    obj = [Fraction(-1, 2), Fraction(3, 8), Fraction(5, 11)]
    lp = General(rows, rhs, [False, True, True], obj, "max")
    res = lp.solve()
    assert res.status == "feasible"
    assert check_witness(lp, res.witness)
    assert res.witness == (Fraction(-8, 15), 0, Fraction(457, 105))
    assert res.value == sum(c * x for c, x in zip(lp.objective, res.witness))


# ---------------------------------------------------------------------------
# integer rows: built and loaded in integers, the optimum read off the tableau
# ---------------------------------------------------------------------------


def _form(v):
    ints, den = integerize(list(v))
    return tuple(ints), den


def test_combination_lp_rows_are_the_integerized_fraction_rows():
    # every row, with its rhs, is `integerize` of the Fraction row that
    # scale * vector columns and rows of ones for convex blocks give
    rng = random.Random(20171)
    scales = {"zero": 0, "one": 1, "minus-one": -1, "int": 0, "fraction": 0}
    seen = set()
    for _ in range(300):
        dim = rng.randint(1, 4)
        blocks = []
        for _ in range(rng.randint(1, 4)):
            vectors = [
                tuple(
                    Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 6))
                    for _ in range(dim)
                )
                for _ in range(rng.randint(0, 3))
            ]
            kind = rng.choice(sorted(scales))
            scale = {
                "zero": 0,
                "one": 1,
                "minus-one": -1,
                "int": rng.choice([-3, 2, 5]),
                "fraction": Fraction(rng.choice([-7, -1, 1, 3, 11]), rng.choice([2, 3, 10])),
            }[kind]
            convex = rng.random() < 0.5
            seen.add((kind, convex))
            blocks.append((vectors, scale, convex))
        target = tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(dim)
        )
        objective = [rng.randint(-2, 2) for _ in range(sum(len(v) for v, _, _ in blocks))]
        lp = combination_lp(
            target, [([_form(v) for v in vs], s, c) for vs, s, c in blocks], objective
        )
        rows, rhs = reference_combination_rows(target, blocks)
        expected = [integerize([*row, b])[0] for row, b in zip(rows, rhs)]
        assert [[*row, b] for row, b in zip(lp.rows, lp.rhs)] == expected
        assert all(type(e) is int for row in lp.rows for e in row)
        assert lp == LinearProgram(
            lp.n_vars, tuple(map(tuple, rows)), tuple(rhs), tuple(objective)
        )
    assert seen == {(kind, convex) for kind in scales for convex in (False, True)}


def test_fraction_rows_load_once_as_their_integer_forms():
    rows = ((Fraction(3, 2), 1, 0), (0, 1, Fraction(-7, 3)), (2, 4, 6))
    lp = LinearProgram(3, rows, (Fraction(5, 4), 0, 8), (1, 0, Fraction(1, 2)))
    assert lp.rows == ((6, 4, 0), (0, 3, -7), (2, 4, 6))
    assert lp.rhs == (5, 0, 8)
    # an integer row is its own integer form, kept as given: no gcd is taken
    assert LinearProgram(3, lp.rows, lp.rhs, lp.objective) == lp
    assert lp.objective == (1, 0, Fraction(1, 2))


def test_tableau_value_equals_the_objective_at_the_witness():
    values = 0
    for general in itertools.chain(_lps_seed_99(), _lps_seed_7()):
        lp = general.lp
        res = solve(lp)
        if res.is_feasible and lp.objective is not None:
            assert type(res.value) is Fraction
            assert res.value == sum(c * x for c, x in zip(lp.objective, res.witness))
            values += 1
    assert values >= 30
    # crash-scaled columns and Fraction costs: Lc is the lcm of 3/2 and 1/12
    lp = LinearProgram(3, ((3, 1, 0), (0, 1, 4)), (2, 1), (Fraction(1, 2), -1, Fraction(1, 3)))
    res = solve(lp)
    assert res.value == sum(c * x for c, x in zip(lp.objective, res.witness))
