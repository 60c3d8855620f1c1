"""Deterministic linear feasibility/optimization oracle.

Every program is in standard form: equality rows over nonnegative
variables, minimizing a linear objective when one is given and a
feasibility question when it is not.  `combination_lp` builds every
program the package solves in one column layout, with its rows in
integers.  A two-phase simplex method with Bland's rule solves them on
an integer tableau with fraction-free (Bareiss) pivots, so every
feasible/infeasible/unbounded verdict is certified by the arithmetic
and the method provably terminates.  `eliminate` is that pivot's step
on one row, the only fraction-free elimination step in the package.  A
crash start (Bixby 1992) begins each row that can on a structural
column found in that row alone, so only the other rows need an
artificial column and phase 1.

The tableau is dense and small on purpose: every caller in this package
produces programs with at most a few dozen variables, and correctness
is worth far more here than asymptotics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rational import Number, integerize

__all__ = [
    "LPFormatError",
    "LinearProgram",
    "LPResult",
    "combination_lp",
    "eliminate",
    "solve",
]


class LPFormatError(ValueError):
    """Raised when a program's dimensions or fields are inconsistent."""


@dataclass(frozen=True)
class LinearProgram:
    """Standard form: rows @ x == rhs with x >= 0.

    With an ``objective`` the program minimizes objective @ x; with
    None it asks only whether a feasible x exists.

    Rows load in integers, once, at construction: a row given with a
    Fraction entry, or a Fraction rhs, is replaced with its rhs by their
    `rational.integerize` form, a positive multiple with the same
    solutions.  A row of ints is that form already, so programs built
    from the same rows compare equal however their entries were given.
    """

    n_vars: int
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    objective: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.n_vars < 0:
            raise LPFormatError("negative variable count")
        if len(self.rhs) != len(self.rows):
            raise LPFormatError(
                f"{len(self.rows)} rows but {len(self.rhs)} right-hand sides"
            )
        for i, row in enumerate(self.rows):
            if len(row) != self.n_vars:
                raise LPFormatError(
                    f"row {i} has width {len(row)}, expected {self.n_vars}"
                )
        if self.objective is not None and len(self.objective) != self.n_vars:
            raise LPFormatError("objective width does not match variable count")
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if set(map(type, itertools.chain(self.rhs, *self.rows))) <= {int}:
            return
        rows, rhs = [], []
        for row, b in zip(self.rows, self.rhs):
            ints, _ = integerize([*row, b])
            rows.append(tuple(ints[:-1]))
            rhs.append(ints[-1])
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "rhs", tuple(rhs))


IntForm = tuple[Sequence[int], int]


def combination_lp(
    target: Sequence[int | Fraction],
    blocks: Sequence[tuple[Sequence[IntForm], int | Fraction, bool]],
    objective: Optional[Sequence[Number]] = None,
) -> LinearProgram:
    """Program for target = sum over blocks of scale * (nonnegative
    combination of the block's vectors).

    ``blocks`` lists (forms, scale, convex) in column order, each vector
    given by its integer form (ints, den), vector == ints / den, as the
    `geometry` value types keep them.  Each scale and each target entry
    is an int or a Fraction.  A convex block's weights sum to one, in a
    row after the coordinate rows; such rows follow block order.  Every
    program in this package is one such program, so this fixed layout
    also fixes the pivots.

    Each row is built straight in integers: it is the row's Fraction
    entries, with the target's entry as rhs, times the lcm of their
    reduced denominators, which is the `rational.integerize` form that
    `LinearProgram` would load.  No Fraction is formed.
    """
    # Tuples are made from lists, at their final size: CPython grows a
    # tuple made from a generator by resizing, and each one freed is kept
    # in its size's free list, which that route never draws on.
    cols: list[IntForm] = []  # column j is ints / den
    spans = []  # column range of each convex block
    for forms, scale, convex in blocks:
        if convex:
            spans.append(range(len(cols), len(cols) + len(forms)))
        num, den = scale.numerator, scale.denominator
        if num == den == 1:
            cols += forms
        else:
            cols += [(tuple([num * c for c in ints]), den * d) for ints, d in forms]
    rows, rhs = [], []
    for r, t in enumerate(target):
        # the entry ints[r] / d has reduced denominator d / gcd(ints[r], d)
        lcm = math.lcm(t.denominator, *(d // math.gcd(v[r], d) for v, d in cols if d != 1))
        rows.append(tuple([v[r] * lcm // d for v, d in cols]))
        rhs.append(t.numerator * (lcm // t.denominator))
    for span in spans:
        rows.append(tuple([int(j in span) for j in range(len(cols))]))
        rhs.append(1)
    return LinearProgram(
        n_vars=len(cols),
        rows=tuple(rows),
        rhs=tuple(rhs),
        objective=None if objective is None else tuple(objective),
    )


@dataclass(frozen=True)
class LPResult:
    """Solver outcome.

    ``status`` is "feasible", "infeasible", or "unbounded" (only a
    program with an objective is unbounded).  For feasible results
    ``witness`` satisfies every row exactly, with every entry
    nonnegative, and ``value`` is the least objective value (0 for a
    feasibility question).
    """

    status: str
    value: object = None
    witness: Optional[tuple] = None

    @property
    def is_feasible(self) -> bool:
        return self.status == "feasible"


def solve(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` exactly."""
    # called through the module global: bench/run.py --trace 1 rebinds
    # _solve_exact to count every LP solve directly
    return _solve_exact(lp)


# ---------------------------------------------------------------------------
# the two-phase simplex on a fraction-free integer tableau
# ---------------------------------------------------------------------------
#
# The driver owns the starting basis, phase 1, the drive-out of
# artificials, phase 2 and the witness.  The tableau (``rows`` with the
# rhs last, ``basis``, the reduced-cost row ``obj``, the running
# determinant ``det``) owns the pivoting.
#
# `LinearProgram` holds each row with its rhs in integers already, and
# `_solve_exact` negates a row with a negative rhs on those integers, so
# it forms no Fraction product.  Only the objective, one vector, is
# scaled to integers here, after the crash start has divided the costs
# of its scaled columns: c = Lc * costs.  The cost row then holds
# -det * Lc * (c . x) in its last entry at every basis, so the optimum
# is read off it as one Fraction.
#
# The starting basis is a crash basis (Bixby, "Implementing the simplex
# method: the initial basis", ORSA J. Computing 4(3), 1992).  A row
# starts on the first structural column that is nonzero in it alone,
# when that entry is positive, or negative on a zero rhs, which the
# row's negation makes positive.  With a the entry then, the column is
# divided by a, which only sets its one entry to 1; the variable becomes
# a * x_j, so the witness divides it by a again and phase 2 reads its
# cost as c_j / a.  Every other row gets an artificial column, and
# phase 1 minimizes their sum from there.  Bland's rule terminates from
# any feasible basis, so the start changes pivots but no verdict.
#
# All rows then share one scale, as in Edmonds (1967) and Bareiss
# (1968): ``det > 0`` is the absolute determinant of the current basis
# (1 for the starting identity), and every basic column holds ``det`` in
# its own row and 0 in every other row.  So the tableau is
# det * B^-1 [A | b], the basic value of row i is rhs_i / det, and the
# reduced-cost row is det times the true one.  A pivot on (p, q), with
# row p negated if needed so that piv = T[p][q] > 0, replaces every
# other row r (and the cost row) by
# (row_r * piv - T[r][q] * row_p) // det and then sets det = piv.  By
# Sylvester's identity each division is exact, so no row is ever reduced
# by its gcd.  Bland's rule reads only signs and ratio cross-products,
# which a common positive scale leaves unchanged.


def _solve_exact(lp: LinearProgram) -> LPResult:
    tab = _Tableau()
    n = lp.n_vars
    m = len(lp.rows)

    rows = []
    for row, b in zip(lp.rows, lp.rhs):
        rows.append([-e for e in row] + [-b] if b < 0 else [*row, b])

    # Crash: each row takes the first singleton column that can start
    # basic in it, scaled to a unit column; ``scale`` maps it back.
    crash = [-1] * m
    scale = {}
    for j, col in zip(range(n), zip(*rows)):
        if col.count(0) != m - 1:
            continue
        r = next(i for i, e in enumerate(col) if e)
        if crash[r] >= 0:
            continue
        row, a = rows[r], col[r]
        if a < 0:
            if row[-1]:
                continue
            row[:] = [-e for e in row]
            a = -a
        row[j] = 1
        crash[r] = j
        if a != 1:
            scale[j] = a

    # One artificial identity column per row left without a crash column.
    k = crash.count(-1)
    placed = 0
    for r, row in enumerate(rows):
        row[n:n] = [0] * k
        if crash[r] < 0:
            row[n + placed] = 1
            crash[r] = n + placed
            placed += 1
    tab.rows, tab.basis = rows, crash

    if k:
        tab.set_objective([0] * n + [1] * k)
        tab.run_bland(range(n + k))
        # phase 1 ends at a feasible basis, so no artificial is negative
        if any(tab.rows[i][-1] for i in range(m) if tab.basis[i] >= n):
            return LPResult(status="infeasible")
        # Basic artificials sit at value zero after a successful phase 1;
        # pivot them onto structural columns, or drop redundant rows.
        i = 0
        while i < len(tab.rows):
            if tab.basis[i] >= n:
                q = next((j for j in range(n) if tab.rows[i][j]), -1)
                if q < 0:
                    del tab.rows[i]
                    del tab.basis[i]
                    continue
                tab.pivot(i, q)
            i += 1

    value = Fraction(0)
    if lp.objective is not None:
        costs = list(lp.objective)
        for j, a in scale.items():
            costs[j] = Fraction(costs[j], a)
        c, lc = integerize(costs)
        tab.set_objective(c + [0] * k)
        if tab.run_bland(range(n)) == "unbounded":
            return LPResult(status="unbounded")
        value = Fraction(-tab.obj[-1], lc * tab.det)

    # Every basic column is structural now.
    x = [Fraction(0)] * n
    for i, b in enumerate(tab.basis):
        x[b] = Fraction(tab.rows[i][-1], tab.det * scale.get(b, 1))
    return LPResult(status="feasible", value=value, witness=tuple(x))


class _Tableau:
    def __init__(self):
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.obj: list[int] = []
        self.det = 1

    def set_objective(self, costs: list[int]) -> None:
        # det times the reduced costs: det * costs - sum of costs[B(i)] * row i
        obj = [c * self.det for c in costs] + [0]
        for i, row in enumerate(self.rows):
            f = costs[self.basis[i]]
            if f:
                obj = [o - f * r for o, r in zip(obj, row)]
        self.obj = obj

    def pivot(self, p: int, q: int) -> None:
        rows = self.rows
        prow = rows[p]
        if prow[q] < 0:
            prow = [-e for e in prow]
            rows[p] = prow
        piv, det = prow[q], self.det
        for i, row in enumerate(rows):
            if i != p:
                rows[i] = eliminate(row, prow, q, piv, det)
        self.obj = eliminate(self.obj, prow, q, piv, det)
        self.det = piv
        self.basis[p] = q

    def run_bland(self, allowed: range) -> str:
        """Minimize until optimal ('optimal') or an unbounded ray ('unbounded')."""
        rows = self.rows
        while True:
            q = -1
            for j in allowed:
                if self.obj[j] < 0:
                    q = j
                    break
            if q < 0:
                return "optimal"
            best = -1
            for i in range(len(rows)):
                a = rows[i][q]
                if a <= 0:
                    continue
                if best < 0:
                    best = i
                    continue
                # rhs_i / a_iq  vs  rhs_best / a_best,q  via cross products
                lhs = rows[i][-1] * rows[best][q]
                rhs = rows[best][-1] * rows[i][q]
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                    best = i
            if best < 0:
                return "unbounded"
            self.pivot(best, q)


def eliminate(row: list[int], prow: list[int], q: int, piv: int, det: int) -> list[int]:
    """``row`` after the fraction-free (Bareiss) pivot on prow[q] = piv,
    with det the previous pivot (1 before the first): every entry
    (a * piv - row[q] * b) // det, a division Sylvester's identity makes
    exact."""
    f = row[q]
    if f:
        return [(a * piv - f * b) // det for a, b in zip(row, prow)]
    return [a * piv // det for a in row]
