"""Lower-boundedness ladder for ray-represented ranges.

Four progressively weaker properties of a range M against an ordering
cone K (and a perturbation polytope H inside K):

1. cone lower bounded: M sits inside b + K for a single point b;
2. quasi lower bounded: M sits inside B + K for some bounded set B;
3. dual-witness bounded: some functional k* that is nonnegative on K and
   uniformly positive on H has finite infimum over M;
4. shifted-set bounded: some translate y0 - eps*H - K misses M entirely.

Each level implies the next, and none of the implications reverses.

For piecewise (vertices + rays) data the reductions are:
* level 2 holds iff every ray lies in K.  Rays inside K recede into
  B + K for B the hull of all piece vertices; conversely a ray r
  outside the closed cone K escapes every B + K, because separating r
  from K gives a functional negative on r, nonnegative on K, hence
  unbounded below along the ray but bounded below on B + K.
* level 1 additionally needs one LP placing every piece vertex above a
  common point b.
* level 3 is a single LP over functionals; level 4 is existential over
  an unbounded candidate space, so the check is honest: it confirms a
  candidate or reports unknown, never "impossible".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    ConeGen,
    DimensionMismatchError,
    Polytope,
    VPolyhedralUnion,
    cone_contains,
    union_disjoint_from,
    zero_notin_H_plus_K,
)
from .lp_core import combination_lp, solve
from .rational import Number, Vec, dot, frac, frac_vec

__all__ = [
    "BoundednessReport",
    "is_K_lower_bounded",
    "is_quasi_K_lower_bounded",
    "find_kstar",
    "separating_epsilon_for",
    "is_H_lower_bounded",
    "classify",
]


def is_quasi_K_lower_bounded(M: VPolyhedralUnion, K: ConeGen) -> bool:
    """True iff every recession ray of every piece lies in the cone."""
    if M.dim != K.dim:
        raise DimensionMismatchError("union and cone dimensions differ")
    return all(cone_contains(K, r) for r in M.all_rays())


def is_K_lower_bounded(M: VPolyhedralUnion, K: ConeGen) -> tuple[bool, Optional[Vec]]:
    """Decide M within b + K, returning the witness b when one exists."""
    if M.dim != K.dim:
        raise DimensionMismatchError("union and cone dimensions differ")
    if not is_quasi_K_lower_bounded(M, K):
        return False, None
    b = _common_lower_point(M, K)
    return b is not None, b


def _common_lower_point(M: VPolyhedralUnion, K: ConeGen) -> Optional[Vec]:
    """A point b with every piece vertex in b + K, by one LP, or None.

    Together with every ray lying in K this decides M within b + K.
    """
    verts = M.all_vertices()
    n = M.dim
    zero, one = Fraction(0), Fraction(1)
    # One row per vertex coordinate.  b = b+ - b-, the two columns of each
    # coordinate side by side, then one generator-weight block per vertex.
    blocks = []
    for r in range(n):
        unit = (tuple(one if i == r else zero for i in range(n)) * len(verts),)
        blocks += [(unit, 1, False), (unit, -1, False)]
    for vi in range(len(verts)):
        before, after = (zero,) * (n * vi), (zero,) * (n * (len(verts) - vi - 1))
        blocks.append(([before + g + after for g in K.generators], 1, False))
    res = solve(combination_lp([c for v in verts for c in v], blocks))
    if not res.is_feasible:
        return None
    return tuple(res.witness[2 * r] - res.witness[2 * r + 1] for r in range(n))


def find_kstar(M: VPolyhedralUnion, K: ConeGen, H: Polytope) -> Optional[Vec]:
    """Search for a dual witness of lower boundedness.

    Finds l with l.g >= 0 on generators, l.h >= 1 on H vertices (the
    uniform-positivity threshold is normalized to one; any positive
    threshold rescales), and l.r >= 0 on every ray of M, so the infimum
    of l over M is a finite vertex minimum.  Returns the witness of
    least l1-norm, or None when the program is infeasible.
    """
    if M.dim != K.dim:
        raise DimensionMismatchError("union and cone dimensions differ")
    if H.dim != M.dim:
        raise DimensionMismatchError("polytope dimension differs")
    n = M.dim
    rays = M.all_rays()
    constraints = [(g, Fraction(0)) for g in K.generators]
    constraints += [(h, Fraction(1)) for h in H.vertices]
    constraints += [(r, Fraction(0)) for r in rays]
    k = len(constraints)
    # l = a - b with a, b >= 0, and one slack s_c >= 0 per constraint:
    # l.w_c - s_c = bound_c, columns a (n), b (n), s (k).  The slack
    # block is -I written out with shared entries: scaling I by -1 would
    # form k*k Fraction products on every call.
    cols = [tuple(w[r] for w, _ in constraints) for r in range(n)]
    zero, minus_one = Fraction(0), Fraction(-1)
    slacks = [tuple(minus_one if i == j else zero for i in range(k)) for j in range(k)]
    lp = combination_lp(
        [bound for _, bound in constraints],
        [(cols, 1, False), (cols, -1, False), (slacks, 1, False)],
        [1] * (2 * n) + [0] * k,
    )
    res = solve(lp)
    if not res.is_feasible:
        return None
    return tuple(res.witness[r] - res.witness[n + r] for r in range(n))


def separating_epsilon_for(
    M: VPolyhedralUnion, kstar: Sequence[Number], y: Sequence[Number]
) -> Fraction:
    """Smallest guaranteed escape scale derived from a dual witness.

    For k* nonnegative on rays and >= 1 on H, any point of
    y - eps*H - K scores at most k*.y - eps under k*, while M scores at
    least its vertex minimum.  Any eps strictly above the gap therefore
    separates; returned value adds one to stay clear of the boundary.
    """
    ks = frac_vec(kstar)
    yv = frac_vec(y)
    inf_m = min(dot(ks, v) for v in M.all_vertices())
    gap = dot(ks, yv) - inf_m
    return max(gap, Fraction(0)) + 1


def is_H_lower_bounded(
    M: VPolyhedralUnion,
    K: ConeGen,
    H: Polytope,
    candidates: Sequence[tuple[Sequence[Number], Number]],
) -> Optional[tuple[Vec, Fraction]]:
    """The first (y0, eps) candidate whose translate y0 - eps*H - K
    misses M, or None when every candidate intersects it.

    None means unknown, never "not shifted-set bounded": the property is
    existential over an unbounded space and this module does not pretend
    to refute it.
    """
    if not candidates:
        raise ValueError("candidate list must not be empty")
    for y0, eps in candidates:
        e = frac(eps)
        if e <= 0:
            raise ValueError("every candidate eps must be positive")
        if union_disjoint_from(M, y0, e, H, K):
            return frac_vec(y0), e
    return None


@dataclass(frozen=True)
class BoundednessReport:
    """All four ladder levels plus a consistency flag.

    ``ladder_consistent`` asserts the one link of the implication chain
    the computed flags can break, quasi K-lower bounded => k*(H)-lower
    bounded: the K-lower witness is sought only under quasi, and the
    shifted-set search never refutes.
    """

    k_lower: bool
    k_lower_witness: Optional[Vec]
    quasi_k_lower: bool
    kstar_h_lower: bool
    kstar_witness: Optional[Vec]
    h_lower: Optional[bool]
    h_lower_witness: Optional[tuple[Vec, Fraction]]
    ladder_consistent: bool


def classify(
    M: VPolyhedralUnion,
    K: ConeGen,
    H: Polytope,
    candidates: Sequence[tuple[Sequence[Number], Number]],
) -> BoundednessReport:
    """Run all four checks and assemble the ladder report.

    The shifted-set search tries the caller's (y0, eps) candidates in
    order.  When a dual witness k* exists, one more candidate follows
    them: the first candidate's anchor y with the escape scale
    `separating_epsilon_for(M, k*, y)`, which always misses M, so a
    dual-witness bounded range is also reported shifted-set bounded.
    """
    if not zero_notin_H_plus_K(H, K):
        raise ValueError(
            "dual-witness classification requires the origin outside H + K"
        )
    quasi = is_quasi_K_lower_bounded(M, K)
    b = _common_lower_point(M, K) if quasi else None
    kstar = find_kstar(M, K, H)
    candidates = list(candidates)
    if kstar is not None and candidates:
        y = candidates[0][0]
        candidates.append((y, separating_epsilon_for(M, kstar, y)))
    h_witness = is_H_lower_bounded(M, K, H, candidates)
    return BoundednessReport(
        k_lower=b is not None,
        k_lower_witness=b,
        quasi_k_lower=quasi,
        kstar_h_lower=kstar is not None,
        kstar_witness=kstar,
        h_lower=True if h_witness is not None else None,
        h_lower_witness=h_witness,
        ladder_consistent=not (quasi and kstar is None),
    )
