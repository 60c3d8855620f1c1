"""Deterministic linear feasibility/optimization oracle.

Programs are stated as equality rows over variables that are either
nonnegative or free, with an optional linear objective.  A two-phase
simplex method with Bland's rule solves them on an integer tableau
with fraction-free (Bareiss) pivots, so every feasible/infeasible/
unbounded verdict is certified by the arithmetic and the method
provably terminates.

The tableau is dense and small on purpose: every caller in this package
produces programs with at most a few dozen variables, and correctness
is worth far more here than asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rational import Vec, frac_vec, integerize

__all__ = [
    "LPFormatError",
    "LinearProgram",
    "LPResult",
    "solve",
]


class LPFormatError(ValueError):
    """Raised when a program's dimensions or fields are inconsistent."""


@dataclass(frozen=True)
class LinearProgram:
    """Equality-constrained program: rows @ x == rhs, x[j] >= 0 where flagged.

    ``sense`` is "min", "max", or "feasibility".  Feasibility-only
    programs carry no objective (equivalently an all-zero one).
    """

    n_vars: int
    rows: tuple[Vec, ...]
    rhs: Vec
    nonneg: tuple[bool, ...]
    objective: Optional[Vec] = None
    sense: str = "feasibility"

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
        if len(self.nonneg) != self.n_vars:
            raise LPFormatError(
                f"{len(self.nonneg)} nonnegativity flags for {self.n_vars} variables"
            )
        if self.sense not in ("min", "max", "feasibility"):
            raise LPFormatError(f"unknown sense {self.sense!r}")
        if self.sense == "feasibility":
            if self.objective is not None and any(c != 0 for c in self.objective):
                raise LPFormatError("feasibility-only program with nonzero objective")
        else:
            if self.objective is None:
                raise LPFormatError(f"sense {self.sense!r} requires an objective")
            if len(self.objective) != self.n_vars:
                raise LPFormatError("objective width does not match variable count")

    @classmethod
    def feasibility(cls, rows, rhs, nonneg) -> "LinearProgram":
        rows = tuple(frac_vec(r) for r in rows)
        return cls(
            n_vars=len(nonneg),
            rows=rows,
            rhs=frac_vec(rhs),
            nonneg=tuple(bool(b) for b in nonneg),
        )

    @classmethod
    def optimize(cls, objective, sense, rows, rhs, nonneg) -> "LinearProgram":
        rows = tuple(frac_vec(r) for r in rows)
        return cls(
            n_vars=len(nonneg),
            rows=rows,
            rhs=frac_vec(rhs),
            nonneg=tuple(bool(b) for b in nonneg),
            objective=frac_vec(objective),
            sense=sense,
        )


@dataclass(frozen=True)
class LPResult:
    """Solver outcome.

    ``status`` is "feasible", "infeasible", or "unbounded".  For feasible
    results ``witness`` satisfies every row exactly and ``value`` is the
    objective value (0 for feasibility-only programs).
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
# The driver owns the split of free columns, the artificial basis, phase
# 1, the drive-out of artificials, phase 2 and the witness.  The tableau
# (``rows`` with the rhs last, ``basis``, the reduced-cost row ``obj``,
# the running determinant ``det``) owns the pivoting.
#
# `rational.integerize` loads each row and the objective once as integer
# vectors, and `_solve_exact` splits free columns and flips rows by +-1 on
# those integers, so it forms no Fraction product.  All rows then share
# one scale, as in Edmonds (1967) and Bareiss (1968): ``det > 0`` is the
# absolute determinant of the current basis (1 for the artificial
# identity), and every basic column holds ``det`` in its own row and 0 in
# every other row.  So the tableau is det * B^-1 [A | b], the basic value
# of row i is rhs_i / det, and the reduced-cost row is det times the true
# one.  A pivot on (p, q), with row p negated if needed so that
# piv = T[p][q] > 0, replaces every other row r (and the cost row) by
# (row_r * piv - T[r][q] * row_p) // det and then sets det = piv.  By
# Sylvester's identity each division is exact, so no row is ever reduced
# by its gcd.  Bland's rule reads only signs and ratio cross-products,
# which a common positive scale leaves unchanged.


def _solve_exact(lp: LinearProgram) -> LPResult:
    tab = _Tableau()
    # Split free variables into positive/negative parts.
    cols: list[tuple[int, int]] = []
    for j, nn in enumerate(lp.nonneg):
        cols.append((j, 1))
        if not nn:
            cols.append((j, -1))
    n_struct = len(cols)
    m = len(lp.rows)

    # One artificial identity column per row, basic at the start.
    for r in range(m):
        row, _ = integerize([*lp.rows[r], lp.rhs[r]])
        flip = -1 if row[-1] < 0 else 1
        art = [0] * m
        art[r] = 1
        split = [row[j] * (flip * s) for (j, s) in cols]
        tab.rows.append(split + art + [row[-1] * flip])
    tab.basis = [n_struct + i for i in range(m)]

    if m:
        tab.set_objective([0] * n_struct + [1] * m)
        tab.run_bland(range(n_struct + m))
        # phase 1 ends at a feasible basis, so no artificial is negative
        if any(tab.rows[i][-1] for i in range(m) if tab.basis[i] >= n_struct):
            return LPResult(status="infeasible")
        # Basic artificials sit at value zero after a successful phase 1;
        # pivot them onto structural columns, or drop redundant rows.
        i = 0
        while i < len(tab.rows):
            if tab.basis[i] >= n_struct:
                q = next((j for j in range(n_struct) if tab.rows[i][j]), -1)
                if q < 0:
                    del tab.rows[i]
                    del tab.basis[i]
                    continue
                tab.pivot(i, q)
            i += 1

    if lp.sense != "feasibility":
        sign = 1 if lp.sense == "min" else -1
        width = (len(tab.rows[0]) - 1) if tab.rows else n_struct
        c, _ = integerize(lp.objective)
        pad = [0] * (width - n_struct)
        tab.set_objective([c[j] * (sign * s) for (j, s) in cols] + pad)
        if tab.run_bland(range(n_struct)) == "unbounded":
            return LPResult(status="unbounded")

    # Every basic column is structural now.
    x = [Fraction(0)] * lp.n_vars
    for i, b in enumerate(tab.basis):
        j, s = cols[b]
        x[j] += s * tab.basic_value(i)
    value = Fraction(0)
    if lp.sense != "feasibility":
        value = sum((c * xv for c, xv in zip(lp.objective, x)), Fraction(0))
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
                rows[i] = _eliminate(row, prow, q, piv, det)
        self.obj = _eliminate(self.obj, prow, q, piv, det)
        self.det = piv
        self.basis[p] = q

    def basic_value(self, i: int) -> Fraction:
        return Fraction(self.rows[i][-1], self.det)

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


def _eliminate(row: list[int], prow: list[int], q: int, piv: int, det: int) -> list[int]:
    """``row`` after the pivot on prow[q] = piv: exact integer division by det."""
    f = row[q]
    if f:
        return [(a * piv - f * b) // det for a, b in zip(row, prow)]
    return [a * piv // det for a in row]
