"""Deterministic linear feasibility/optimization oracle.

Programs are stated as equality rows over variables that are either
nonnegative or free, with an optional linear objective.  One two-phase
simplex driver with Bland's rule solves them over either of two tableau
arithmetics:

* ``EXACT`` keeps integer-scaled tableau rows, so every
  feasible/infeasible/unbounded verdict is certified by the arithmetic
  and the method provably terminates.
* ``float_backend(tol)`` keeps a normalized floating-point tableau.
  Verdicts that were decided by a quantity within ``tol`` of a
  constraint boundary are flagged ``marginal`` in the result, meaning
  the status could flip under perturbation of that size.

The tableau is dense and small on purpose: every caller in this package
produces programs with at most a few dozen variables, and correctness
is worth far more here than asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rational import Vec, frac_vec

__all__ = [
    "Backend",
    "EXACT",
    "FLOAT",
    "float_backend",
    "LPFormatError",
    "LinearProgram",
    "LPResult",
    "solve",
    "check_witness",
]


class LPFormatError(ValueError):
    """Raised when a program's dimensions or fields are inconsistent."""


@dataclass(frozen=True)
class Backend:
    """Arithmetic selection for `solve`.

    ``kind`` is "exact" or "float"; ``tol`` is the float backend's
    boundary tolerance and is ignored by the exact backend.
    """

    kind: str
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "float" and not 0 < self.tol < 1:
            raise ValueError("float backend tolerance must be in (0, 1)")


EXACT = Backend("exact")
FLOAT = Backend("float", 1e-9)


def float_backend(tol: float = 1e-9) -> Backend:
    return Backend("float", tol)


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
    results ``witness`` satisfies every row (exactly under the exact
    backend) and ``value`` is the objective value (0 for feasibility-only
    programs).  ``marginal`` is a float-backend diagnostic: the decision
    rested on a quantity within tolerance of a constraint boundary.
    """

    status: str
    value: object = None
    witness: Optional[tuple] = None
    marginal: bool = False

    @property
    def is_feasible(self) -> bool:
        return self.status == "feasible"


def solve(lp: LinearProgram, backend: Backend = EXACT) -> LPResult:
    """Solve ``lp`` with the chosen backend."""
    if backend.kind == "exact":
        return _solve_exact(lp)
    return _two_phase(lp, _FloatTableau(backend.tol))


def _solve_exact(lp: LinearProgram) -> LPResult:
    return _two_phase(lp, _ExactTableau())


def check_witness(lp: LinearProgram, witness: Sequence, tol: float = 0.0) -> bool:
    """Re-check a witness against every constraint (tol=0 means exactly)."""
    if len(witness) != lp.n_vars:
        return False
    xs = list(witness)
    for j, nn in enumerate(lp.nonneg):
        if nn and xs[j] < -tol:
            return False
    for row, b in zip(lp.rows, lp.rhs):
        resid = sum(a * x for a, x in zip(row, xs)) - b
        if abs(resid) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# the two-phase driver, shared by both arithmetics
# ---------------------------------------------------------------------------
#
# The driver owns the split of free columns, the artificial basis, phase
# 1, the drive-out of artificials, phase 2 and the witness.  A tableau
# (``rows`` with the rhs last, ``basis``, reduced costs) owns only its
# arithmetic: `load_row` (a row of Fractions in its own numbers),
# `set_objective` (a cost row already in its numbers), `pivot`,
# `run_bland`, `basic_value` and the tests `positive` and `nonzero`.
# The driver loads each row and the objective once, then splits free
# columns and flips rows by +-1 on the loaded numbers, so it forms no
# Fraction product.  The float tableau records in ``marginal`` each
# quantity it reads within tol of zero; `note` records one the driver
# reads.


class _Tableau:
    marginal = False

    def __init__(self):
        self.rows: list[list] = []
        self.basis: list[int] = []
        self.obj: list = []

    def note(self, v) -> None:
        pass


def _two_phase(lp: LinearProgram, tab: _Tableau) -> LPResult:
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
        row = tab.load_row([*lp.rows[r], lp.rhs[r]])
        flip = -1 if row[-1] < 0 else 1
        art = [0] * m
        art[r] = 1
        split = [row[j] * (flip * s) for (j, s) in cols]
        tab.rows.append(split + art + [row[-1] * flip])
    tab.basis = [n_struct + i for i in range(m)]

    if m:
        tab.set_objective(tab.load_row([0] * n_struct + [1] * m))
        tab.run_bland(range(n_struct + m))
        infeas = sum(
            tab.basic_value(i) for i in range(m) if tab.basis[i] >= n_struct
        )
        if tab.positive(infeas):
            return LPResult(status="infeasible", marginal=tab.marginal)
        # Basic artificials sit at value zero after a successful phase 1;
        # pivot them onto structural columns, or drop redundant rows.
        i = 0
        while i < len(tab.rows):
            if tab.basis[i] >= n_struct:
                q = next(
                    (j for j in range(n_struct) if tab.nonzero(tab.rows[i][j])), -1
                )
                if q < 0:
                    del tab.rows[i]
                    del tab.basis[i]
                    continue
                tab.pivot(i, q)
            i += 1

    if lp.sense != "feasibility":
        sign = 1 if lp.sense == "min" else -1
        width = (len(tab.rows[0]) - 1) if tab.rows else n_struct
        c = tab.load_row(lp.objective)
        pad = tab.load_row([0] * (width - n_struct))
        tab.set_objective([c[j] * (sign * s) for (j, s) in cols] + pad)
        if tab.run_bland(range(n_struct)) == "unbounded":
            return LPResult(status="unbounded", marginal=tab.marginal)

    # Every basic column is structural now.
    x = [tab.zero] * lp.n_vars
    for i, b in enumerate(tab.basis):
        v = tab.basic_value(i)
        tab.note(v)
        j, s = cols[b]
        x[j] += s * v
    value = tab.zero
    if lp.sense != "feasibility":
        value = sum((c * xv for c, xv in zip(lp.objective, x)), tab.zero)
    return LPResult(
        status="feasible", value=value, witness=tuple(x), marginal=tab.marginal
    )


# ---------------------------------------------------------------------------
# exact arithmetic: integer-scaled rows
# ---------------------------------------------------------------------------
#
# Rows are kept as integer vectors.  `_integerize` forms them at load
# time: a row of Fractions times the lcm of its denominators, taken per
# entry as numerator * (lcm // denominator).  Cost rows are loaded the
# same way (a positive factor leaves every pivot choice unchanged).
# The tableau then holds only ints.  A pivot on (p, q) replaces row r by
# row_r * |T[p][q]| - row_p * (T[r][q] * sign(T[p][q])), which keeps
# everything integral; each row is then divided by its gcd to keep the
# integers small.  Basis columns keep a single positive entry, so the
# basic value of row i is rhs_i / T[i][B_i] and ratio tests compare
# integer cross-products.


def _row_gcd_reduce(row: list[int]) -> None:
    g = 0
    for e in row:
        g = math.gcd(g, e)
        if g == 1:
            return
    if g > 1:
        for k in range(len(row)):
            row[k] //= g


def _integerize(values: Sequence[Fraction]) -> list[int]:
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


class _ExactTableau(_Tableau):
    zero = Fraction(0)

    load_row = staticmethod(_integerize)

    def set_objective(self, costs: list[int]) -> None:
        # Reduced-cost row = costs - combination of basic rows, held integral
        # and scaled by a positive factor (signs are all that matter).
        obj = costs + [0]
        for i, row in enumerate(self.rows):
            f = obj[self.basis[i]]
            if f:
                piv = row[self.basis[i]]
                obj = [o * piv - f * r for o, r in zip(obj, row)]
                _row_gcd_reduce(obj)
        self.obj = obj

    def pivot(self, p: int, q: int) -> None:
        rows = self.rows
        prow = rows[p]
        if prow[q] < 0:
            prow = [-e for e in prow]
            rows[p] = prow
        piv = prow[q]
        for i in range(len(rows)):
            if i == p:
                continue
            row = rows[i]
            f = row[q]
            if f:
                rows[i] = [a * piv - f * b for a, b in zip(row, prow)]
                _row_gcd_reduce(rows[i])
        f = self.obj[q]
        if f:
            self.obj = [a * piv - f * b for a, b in zip(self.obj, prow)]
            _row_gcd_reduce(self.obj)
        _row_gcd_reduce(prow)
        self.basis[p] = q

    def basic_value(self, i: int) -> Fraction:
        return Fraction(self.rows[i][-1], self.rows[i][self.basis[i]])

    @staticmethod
    def positive(v: Fraction) -> bool:
        return v > 0

    @staticmethod
    def nonzero(v: int) -> bool:
        return v != 0

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


# ---------------------------------------------------------------------------
# float arithmetic: classic normalized tableau, tol comparisons
# ---------------------------------------------------------------------------


class _FloatTableau(_Tableau):
    zero = 0.0

    def __init__(self, tol: float):
        super().__init__()
        self.tol = tol
        self.noise = tol * 1e-6

    def note(self, v: float) -> None:
        if self.noise < abs(v) <= self.tol:
            self.marginal = True

    @staticmethod
    def load_row(values: list[Fraction]) -> list[float]:
        return [float(e) for e in values]

    def set_objective(self, costs: list[float]) -> None:
        obj = costs + [0.0]
        for i, row in enumerate(self.rows):
            f = obj[self.basis[i]]
            if f:
                obj = [o - f * r for o, r in zip(obj, row)]
        self.obj = obj

    def pivot(self, p: int, q: int) -> None:
        prow = self.rows[p]
        piv = prow[q]
        self.rows[p] = [e / piv for e in prow]
        prow = self.rows[p]
        for i in range(len(self.rows)):
            if i == p:
                continue
            f = self.rows[i][q]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], prow)]
        f = self.obj[q]
        if f:
            self.obj = [a - f * b for a, b in zip(self.obj, prow)]
        self.basis[p] = q

    def basic_value(self, i: int) -> float:
        return self.rows[i][-1]

    def positive(self, v: float) -> bool:
        self.note(v)
        return v > self.tol

    def nonzero(self, v: float) -> bool:
        return abs(v) > self.tol

    def run_bland(self, allowed: range, max_iter: int = 50_000) -> str:
        for _ in range(max_iter):
            q = -1
            for j in allowed:
                rc = self.obj[j]
                self.note(rc)
                if rc < -self.tol:
                    q = j
                    break
            if q < 0:
                return "optimal"
            best = -1
            best_ratio = math.inf
            for i in range(len(self.rows)):
                a = self.rows[i][q]
                self.note(a)
                if a <= self.tol:
                    continue
                ratio = self.rows[i][-1] / a
                if ratio < best_ratio - self.noise or (
                    abs(ratio - best_ratio) <= self.noise
                    and best >= 0
                    and self.basis[i] < self.basis[best]
                ):
                    best = i
                    best_ratio = ratio
            if best < 0:
                return "unbounded"
            self.pivot(best, q)
        raise RuntimeError("simplex iteration limit exceeded (float backend)")
