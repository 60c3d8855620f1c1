"""Exact evaluation of the cone-separation scalarizer phi(y).

For a polytope H inside a cone K with the origin strictly separated from
H + K, the functional

    phi(y) = inf { t : y in t*H - K }

is finite or +infinity, never -infinity.  H sitting inside K makes the
feasible scale set an upward-closed interval, so on each side of zero
the question is one extreme scale.  Three routes compute it:

* `evaluate` obtains the exact infimum from two linear programs.  On the
  branch t >= 0 the substitution mu_i = t * lambda_i turns the bilinear
  constraint into ``y = sum mu_i h_i - k`` with objective ``min sum mu``;
  on the branch t < 0 the substitution mu_i = -t * lambda_i yields
  ``-y = sum mu_i h_i + k`` with objective ``min -sum mu``, whose value
  is t itself.  The smaller achievable value across branches is the
  infimum.
* `phi_from_rows` is the solver's closed form.  It reads the same two
  branches off the row products of a point with the integer halfspaces
  of the cones over t*H - K and t*H + K (`SeparationFunctional.halfspaces`):
  each branch is the extreme t allowed by rows a_z . z + a_t * t >= 0, a
  one-dimensional ratio test (`ConeHalfspaces.scale_range`).  This is
  the polyhedral form of the Gerstewitz functional (Goepfert, Riahi,
  Tammer & Zalinescu, 2003).  `phi_lower_bound` reads the same ratio
  tests without the consistency checks: on rows valid on the two cones
  but perhaps not all of their facets, the least scale they allow is a
  lower bound on phi.
* `evaluate_bisection` never looks at the branch decomposition: it
  brackets the threshold by doubling and bisects fixed-scale membership
  questions down to a requested width, on integer scales over one
  denominator.  Each question compares the scale with the ends of one
  ratio test (`ConeHalfspaces.scale_range`), with no LP and no Fraction.  Its
  correctness rests on the monotonicity of feasibility in the scale and
  on the rows alone, so it shares nothing with `evaluate` but H and K,
  and is a genuinely independent cross-check for it.

The functional is the pair (H, K) and nothing else; the bisection's
width and bracket bound are arguments of `evaluate_bisection`, the one
route that reads them.

The descent solver (`evp.solve`) scores by the closed form, from row
products it computes once per problem.  The certificate verifier checks
a claimed trace value v rather than recomputing it: `phi_lower_bound`
on the same rows shows phi(y - y0) >= v for every image y, and
`ConeHalfspaces.contains` shows that some image reaches v.  Only an
image that the rows bound below v, or not at all, is scored by the LP
`evaluate`.  The ``scalarize`` command uses the LP route and
cross-checks it by bisection; `evaluate` certifies from its own LP
weights that a finite value is attained.

The functional builds one row list per cone, once, at construction
(`geometry.homogenized_halfspaces`), where every row is checked against
the generators formed from H and K; the solver, the verifier, bisection
and the vertex checks all read that list.  A row that fails the check
is dropped before anyone reads it.  A facet missing from the list lets
bisection accept scales below phi, and the two routes disagree.

This module never reads a halfspace row: `geometry.ConeHalfspaces` owns
the row format and answers each question, membership LPs included,
and `rational.integerize` scales a query point to integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    ConeGen,
    ConeHalfspaces,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidConfigurationError,
    Polytope,
    homogenized_halfspaces,
    weights_certify_scaled_H_minus_K,
)
from .lp_core import LinearProgram, combination_lp, solve
from .rational import Number, Vec, frac, frac_vec, integerize

__all__ = [
    "BracketExhaustedError",
    "ExtendedReal",
    "SeparationFunctional",
    "evaluate",
    "evaluate_bisection",
    "phi_from_rows",
    "phi_lower_bound",
]


class BracketExhaustedError(RuntimeError):
    """Bisection could not bracket the value within the configured bound."""


@functools.total_ordering
@dataclass(frozen=True)
class ExtendedReal:
    """A finite rational or +infinity.  -infinity is unrepresentable:
    the functional producing these values is built only over configurations
    where it cannot occur."""

    value: Optional[Fraction] = None  # None encodes +infinity

    @classmethod
    def finite(cls, v: Number) -> "ExtendedReal":
        return cls(frac(v))

    @classmethod
    def plus_infinity(cls) -> "ExtendedReal":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __lt__(self, other: "ExtendedReal") -> bool:
        if not isinstance(other, ExtendedReal):
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return "+inf" if self.value is None else str(self.value)


@dataclass(frozen=True)
class SeparationFunctional:
    """The pair (H, K) that defines phi.

    Construction validates the configuration the evaluators require:
    every vertex of H lies in K but not in -K.  Those vertex checks
    certify that the origin avoids H + K (see `__post_init__`).
    Violations raise `InvalidConfigurationError` immediately rather than
    producing meaningless values later.  Construction also builds
    `halfspaces`, the one checked row list per cone that every reader
    shares; its rows settle "h in K" and "not in -K" with no LP for
    every vertex they certify.
    """

    H: Polytope
    K: ConeGen

    def __post_init__(self) -> None:
        if self.H.dim != self.K.dim:
            raise DimensionMismatchError("H and K dimensions differ")
        # "h in K" is (h, 0) in the cone over t*H + K and "-h in K" is
        # (-h, 0), both asked of `ConeHalfspaces.contains`.  A row of that
        # cone is nonnegative on K, so one positive at h says -h is
        # outside K with no LP.
        plus = self.halfspaces[0]
        for v, (h, _) in zip(self.H.vertices, self.H.integer_vertices):
            products = plus.products(h)
            if not plus.contains(h, products, 0, 1):
                raise InvalidConfigurationError(
                    f"H vertex {tuple(map(str, v))} lies outside the cone"
                )
            if plus.contains([-c for c in h], [-c for c in products], 0, 1):
                raise InvalidConfigurationError(
                    f"H vertex {tuple(map(str, v))} lies in -K"
                )
        # The origin avoids H + K: 0 = h + k with h in H within K puts h
        # in the lineality space L = K cap -K.  A functional positive on
        # K \ L and zero on L then vanishes on every vertex with positive
        # weight in h, so that vertex lies in L, within -K, and the checks
        # above have raised.

    @functools.cached_property
    def halfspaces(self) -> tuple[ConeHalfspaces, ConeHalfspaces]:
        """The checked rows of the cones over t*H + K and t*H - K, in that
        order (`geometry.homogenized_halfspaces`).

        Built during construction, whose "not in -K" checks read the
        first, and kept on the functional.
        """
        return tuple(homogenized_halfspaces(self.H, self.K, s) for s in (1, -1))


def phi_from_rows(
    plus: ConeHalfspaces,
    at_minus_z: Sequence[int],
    minus: ConeHalfspaces,
    at_z: Sequence[int],
    scale: int,
) -> ExtendedReal:
    """phi(z / scale) from row products, by a ratio test per branch.

    ``at_z`` holds ``minus.products(z)``, the row products of the cone
    over t*H - K at the integer point z, and ``at_minus_z`` holds
    ``plus.products(-z)`` for the cone over t*H + K.  The branches and
    their consistency checks are those of `evaluate`: t >= 0 with z in
    t*H - K, least t; and t = -s with -z in s*H + K, greatest s.
    """
    neg = plus.scale_range(at_minus_z)
    if neg is not None and neg[1] is None:
        raise InternalConsistencyError(
            "negative branch unbounded despite origin-separation invariant"
        )
    pos = minus.scale_range(at_z)
    if neg is not None and neg[1][0] > 0:
        if pos is None:
            raise InternalConsistencyError(
                "scale feasibility failed to be upward closed"
            )
        n, d = neg[1]
        return ExtendedReal.finite(Fraction(-n, d * scale))
    if pos is not None:
        n, d = pos[0]
        return ExtendedReal.finite(Fraction(n, d * scale))
    if neg is not None:
        raise InternalConsistencyError(
            "negative branch feasible at zero while t >= 0 branch is not"
        )
    return ExtendedReal.plus_infinity()


def phi_lower_bound(
    plus: ConeHalfspaces,
    at_minus_z: Sequence[int],
    minus: ConeHalfspaces,
    at_z: Sequence[int],
    scale: int,
) -> Optional[ExtendedReal]:
    """A lower bound on phi(z / scale) from rows valid on the two cones,
    or None when they bound nothing below; never raises.

    The arguments are those of `phi_from_rows`.  Rows that are
    nonnegative on a cone (`geometry.homogenized_halfspaces`) describe a
    cone containing it, so every scale the true rows allow, on either
    branch, is also allowed here, and the least scale allowed here is at
    most phi.  That least scale is minus the greatest s of the negative
    branch when it has one, else the least t of the branch t >= 0, else
    +infinity.  An unbounded negative branch gives no bound.  With the
    exact rows the bound is phi itself.
    """
    neg = plus.scale_range(at_minus_z)
    if neg is not None:
        if neg[1] is None:
            return None
        n, d = neg[1]
        return ExtendedReal.finite(Fraction(-n, d * scale))
    pos = minus.scale_range(at_z)
    if pos is None:
        return ExtendedReal.plus_infinity()
    n, d = pos[0]
    return ExtendedReal.finite(Fraction(n, d * scale))


def _branch_lp(
    F: SeparationFunctional, target: Vec, k_sign: int, cost: int
) -> LinearProgram:
    """target = sum mu h + k_sign * k, minimizing cost * sum mu."""
    p, m = len(F.H.vertices), len(F.K.generators)
    blocks = [(F.H.integer_vertices, 1, False), (F.K.integer_generators, k_sign, False)]
    return combination_lp(target, blocks, [cost] * p + [0] * m)


def evaluate(F: SeparationFunctional, y: Sequence[Number]) -> ExtendedReal:
    """phi(y) = inf { t : y in t*H - K }, exactly via two LPs.

    A finite value is attained: the optimal branch's weights place y in
    phi*H - K, which `geometry.weights_certify_scaled_H_minus_K` checks
    exactly; a failed check raises `InternalConsistencyError`.
    """
    yv = frac_vec(y)
    if len(yv) != F.H.dim:
        raise DimensionMismatchError(
            f"query has length {len(yv)}, expected {F.H.dim}"
        )
    # t < 0 branch: -y = sum mu h + k, minimize -sum mu; the value is t.
    neg = solve(_branch_lp(F, tuple(-c for c in yv), +1, -1))
    if neg.status == "unbounded":
        raise InternalConsistencyError(
            "negative branch unbounded despite origin-separation invariant"
        )
    # t >= 0 branch: y = sum mu h - k, minimize sum mu.
    pos = solve(_branch_lp(F, yv, -1, 1))
    if neg.is_feasible and neg.value < 0:
        if not pos.is_feasible:
            raise InternalConsistencyError(
                "scale feasibility failed to be upward closed"
            )
        best = neg
    elif pos.is_feasible:
        best = pos
    elif neg.is_feasible:
        raise InternalConsistencyError(
            "negative branch feasible at zero while t >= 0 branch is not"
        )
    else:
        return ExtendedReal.plus_infinity()
    if not weights_certify_scaled_H_minus_K(F.H, F.K, yv, best.value, best.witness):
        raise InternalConsistencyError(
            f"the optimal branch's weights do not place y in {best.value}*H - K"
        )
    return ExtendedReal.finite(best.value)


def evaluate_bisection(
    F: SeparationFunctional, y: Sequence[Number], tol: Number, t_max: Number
) -> ExtendedReal:
    """Bracket-and-bisect phi(y) to within tol.

    Doubles outward from +-1, each step clamped to +-t_max, to find a
    feasible upper scale and an infeasible lower scale, then bisects.
    Returns the feasible endpoint of the final bracket, which sits within
    tol above the infimum.  When no probed scale up to max(1, t_max) is
    feasible the result is +infinity, which bisection alone can never
    certify: it agrees with any phi(y) > t_max, since t_max itself is
    probed.  When every probed scale down to -max(1, t_max) is feasible,
    `BracketExhaustedError` names the last one.

    "y in t*H - K" is asked of F's checked rows
    (`SeparationFunctional.halfspaces`): for t >= 0 it reads
    (y, t) in the cone over t*H - K, and for t < 0 it reads (-y, -t) in
    the cone over t*H + K.  With y = z / scale, each asks whether
    T = t * scale, in z's frame where the bracket is kept, lies in the
    `ConeHalfspaces.scale_range` of -z or z, each read once per call: the
    intersection of every row's a_z . z + a_t * T >= 0.  Every scale is
    an integer numerator over one denominator d, doubled when a midpoint
    needs it, and is cross-multiplied with the range's ends, so the
    loops form no Fraction.
    """
    tol, t_max = frac(tol), frac(t_max)
    if tol <= 0 or t_max <= 0:
        raise InvalidConfigurationError("t_max and tol must be positive")
    yv = frac_vec(y)
    if len(yv) != F.H.dim:
        raise DimensionMismatchError(
            f"query has length {len(yv)}, expected {F.H.dim}"
        )
    plus, minus = F.halfspaces
    z, scale = integerize(yv)
    below = plus.scale_range(plus.products([-c for c in z]))
    above = minus.scale_range(minus.products(z))

    def feasible(T: int) -> bool:
        """Is T / d feasible in z's frame?"""
        allowed, T = (below, -T) if T < 0 else (above, T)
        if allowed is None:
            return False
        (lo_n, lo_d), hi = allowed
        return lo_n * d <= T * lo_d and (hi is None or T * hi[1] <= hi[0] * d)

    # t_max * scale and tol * scale, over d
    d = math.lcm(t_max.denominator, tol.denominator)
    top = t_max.numerator * scale * (d // t_max.denominator)
    width = tol.numerator * scale * (d // tol.denominator)
    hi = scale * d
    while not feasible(hi):
        if hi >= top:
            return ExtendedReal.plus_infinity()
        hi = min(2 * hi, top)
    lo = -scale * d
    while feasible(lo):
        if -lo >= top:
            raise BracketExhaustedError(
                f"still feasible at scale {Fraction(lo, d * scale)}; "
                "no lower bracket within t_max"
            )
        lo = max(2 * lo, -top)
    while hi - lo > width:
        if (hi + lo) % 2:
            hi, lo, width, d = 2 * hi, 2 * lo, 2 * width, 2 * d
        mid = (hi + lo) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return ExtendedReal.finite(Fraction(hi, d * scale))
