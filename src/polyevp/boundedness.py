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
* level 1 additionally needs v - v1 in span K for every piece vertex v,
  with v1 the first one.  Gauss-Jordan with `lp_core.eliminate`, the
  tableau's fraction-free step, decides it with no LP, and
  `rational.combines_to` checks its weights for the common point b.
* level 3 is a single LP over functionals, which `lp_core.combination_lp`
  builds like every other program; level 4 is existential over an
  unbounded candidate space, so the check is honest: it confirms a
  candidate or reports unknown, never "impossible".

The level-3 witness k* is a certificate for more than level 3.  Checked
by `rational.nonnegative_on` on the integer forms that `ConeGen`,
`Polytope` and `VPolyhedralUnion` keep, it proves the origin outside
H + K, which `classify` needs, and places every shifted-set candidate
with k*.y0 - eps below its infimum over M outside M.  Those facts then
take no LP; a missing k* leaves them to the geometry LPs.  A k* or b
that fails its check is a bug: `geometry.InternalConsistencyError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    ConeGen,
    DimensionMismatchError,
    InternalConsistencyError,
    Polytope,
    VPolyhedralUnion,
    cone_contains,
    homogenized_generators,
    union_disjoint_from,
    zero_notin_H_plus_K,
)
from .lp_core import combination_lp, eliminate, solve
from .rational import Vec, combines_to, idot, integerize, nonnegative_on

__all__ = [
    "BoundednessReport",
    "is_quasi_K_lower_bounded",
    "find_kstar",
    "classify",
]


def is_quasi_K_lower_bounded(M: VPolyhedralUnion, K: ConeGen) -> bool:
    """True iff every recession ray of every piece lies in the cone."""
    if M.dim != K.dim:
        raise DimensionMismatchError("union and cone dimensions differ")
    return all(cone_contains(K, r) for r in M.all_rays())


def _common_lower_point(M: VPolyhedralUnion, K: ConeGen) -> Optional[Vec]:
    """A point b with every piece vertex in b + K, or None; no LP.

    Together with every ray lying in K this decides M within b + K.  With
    v1 the first vertex, such a b exists iff every difference v - v1 lies
    in span K: v - v1 = (v - b) - (v1 - b) lies in K - K.  Conversely,
    Gauss-Jordan on K's generators gives exact weights mu with
    v - v1 = sum_j mu_j g_j for each v (0 on a generator that depends on
    earlier ones).  Let lam = max(0, -mu_j over all v and j) and
    b = v1 - lam * sum_j g_j.
    Then v - b = sum_j (mu_j + lam) g_j, and `combines_to` checks these
    nonnegative weights of each v - b in K before b is returned.

    The elimination is fraction-free, on the integer forms of K and M
    brought to one denominator, with `lp_core.eliminate`, the step of
    `lp_core`'s tableau (Bareiss 1968): each pivot row holds det in its
    pivot column, so mu is an entry over det.  The reduced row echelon
    form is unique, so mu, lam and b are those of Fraction Gauss-Jordan;
    only b is formed as Fractions.
    """
    gens, verts = K.integer_generators, M.integer_vertices
    m, n = len(gens), M.dim
    den = math.lcm(*(d for _, d in gens), *(d for _, d in verts))
    gs = [[c * (den // d) for c in g] for g, d in gens]
    vs = [[c * (den // d) for c in v] for v, d in verts]
    v1 = vs[0]
    # den * [G | D]: the generators as columns, then v - v1 for each vertex v
    aug = [[g[r] for g in gs] + [v[r] - v1[r] for v in vs] for r in range(n)]
    rank, det, pivots = 0, 1, []
    for j in range(m):
        p = next((i for i in range(rank, n) if aug[i][j]), -1)
        if p < 0:
            continue
        pivots.append(j)
        aug[rank], aug[p] = aug[p], aug[rank]
        prow = aug[rank]
        if prow[j] < 0:
            prow = aug[rank] = [-e for e in prow]
        piv = prow[j]
        for i, row in enumerate(aug):
            if i != rank:
                aug[i] = eliminate(row, prow, j, piv, det)
        det = piv
        rank += 1
    # a row with no generator entry left must have no difference entry either
    if any(any(row[m:]) for row in aug[rank:]):
        return None
    # lam = lam_num / det, and b = v1 - lam * sum_j g_j over den * det
    lam_num = max([0] + [-mu for row in aug[:rank] for mu in row[m:]])
    bs = [c * det - lam_num * sum(g[r] for g in gs) for r, c in enumerate(v1)]
    b = tuple(Fraction(c, den * det) for c in bs)
    # den * det * (v - b) = sum_j (det * mu_j + lam_num) * den * g_j
    for k, v in enumerate(vs):
        coeffs = [lam_num] * m
        for j, row in zip(pivots, aug):
            coeffs[j] += row[m + k]
        if not combines_to(coeffs, gs, [c * det - e for c, e in zip(v, bs)]):
            raise InternalConsistencyError(
                f"b = ({', '.join(map(str, b))}) fails its check"
            )
    return b


def find_kstar(M: VPolyhedralUnion, K: ConeGen, H: Polytope) -> Optional[Vec]:
    """Search for a dual witness of lower boundedness.

    Finds l with l.g >= 0 on generators, l.h >= 1 on H vertices (the
    uniform-positivity threshold is normalized to one; any positive
    threshold rescales), and l.r >= 0 on every ray of M, so the infimum
    of l over M is a finite vertex minimum.  Returns the witness of
    least l1-norm, or None when the program is infeasible.

    With l = a - b for a, b >= 0 and one slack s_c >= 0 per constraint
    l . w_c >= bound_c, w_c = ints_c / den_c, `lp_core.combination_lp`
    builds row c as den_c * (w_c . (a - b) - s_c) = den_c * bound_c: the
    columns are the ints_c coordinates, those at scale -1, and the slack
    columns -den_c * e_c, each with denominator 1.
    """
    if M.dim != K.dim:
        raise DimensionMismatchError("union and cone dimensions differ")
    if H.dim != M.dim:
        raise DimensionMismatchError("polytope dimension differs")
    n = M.dim
    # one row per constraint l . w_c >= bound_c
    forms = K.integer_generators + H.integer_vertices + M.integer_rays
    bounds = [0] * len(K.generators) + [1] * len(H.vertices) + [0] * len(M.integer_rays)
    k = len(forms)
    coords = [(col, 1) for col in zip(*(ints for ints, _ in forms))]
    slacks = [
        (tuple([-d if i == c else 0 for i in range(k)]), 1) for c, (_, d) in enumerate(forms)
    ]
    lp = combination_lp(
        [d * bound for (_, d), bound in zip(forms, bounds)],
        [(coords, 1, False), (coords, -1, False), (slacks, 1, False)],
        [1] * (2 * n) + [0] * k,
    )
    res = solve(lp)
    if not res.is_feasible:
        return None
    return tuple(res.witness[r] - res.witness[n + r] for r in range(n))


def _vertex_minimum(M: VPolyhedralUnion, ks: Sequence[int]) -> tuple[int, int]:
    """(num, den) with den > 0 and num / den the least ks . v over the
    piece vertices v, read on their integer forms by cross products."""
    best_n, best_d = None, 1
    for v, d in M.integer_vertices:
        n = idot(ks, v)
        if best_n is None or n * best_d < best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def _kstar_infimum(
    M: VPolyhedralUnion, K: ConeGen, H: Polytope, kstar: Vec
) -> Optional[Fraction]:
    """The infimum of k* over M when k* checks as a dual witness, else None.

    With k* = ks / den, k*.h >= 1, k*.g >= 0 and k*.r >= 0 at the
    vertices h of H, generators g of K and rays r is one `nonnegative_on`
    call: the row (ks, -den) on (h, 1), (g, 0) and (r, 0).  A checked k*
    proves the origin outside H + K, as k*.(h + k) >= 1, and puts every
    candidate with k*.y0 - eps below the infimum outside M.
    """
    ks, den = integerize(kstar)
    gens = homogenized_generators(H, K, 1) + tuple(r + (0,) for r, _ in M.integer_rays)
    if not nonnegative_on(ks + [-den], gens):
        return None
    n, d = _vertex_minimum(M, ks)
    return Fraction(n, d * den)


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


def classify(M: VPolyhedralUnion, K: ConeGen, H: Polytope) -> BoundednessReport:
    """Run all four checks and assemble the ladder report.

    The ladder needs the origin outside H + K.  A dual witness k* must
    pass its exact check (`_kstar_infimum`), which proves that, or
    `InternalConsistencyError` is raised before any further LP; without
    a k*, `geometry.zero_notin_H_plus_K` decides it by LP.  The
    shifted-set search tries the origin at eps = 1, settled by k* when
    -1 lies below its infimum over M and by `geometry.union_disjoint_from`
    otherwise.  When that fails and k* exists, with infimum inf over M,
    the origin at the escape scale max(-inf, 0) + 1 always misses M,
    with no LP: k* scores every point of -eps*H - K at most -eps.  So a
    dual-witness bounded range is also reported shifted-set bounded.
    """
    if H.dim != K.dim:
        raise DimensionMismatchError("polytope and cone dimensions differ")
    # with a union of another dimension the origin test still comes first,
    # and `is_quasi_K_lower_bounded` reports the mismatch after it
    kstar = find_kstar(M, K, H) if M.dim == K.dim else None
    if kstar is not None:
        inf_m = _kstar_infimum(M, K, H, kstar)
        if inf_m is None:
            raise InternalConsistencyError(
                f"k* = ({', '.join(map(str, kstar))}) fails its dual-witness check"
            )
    elif not zero_notin_H_plus_K(H, K):
        raise ValueError(
            "dual-witness classification requires the origin outside H + K"
        )
    quasi = is_quasi_K_lower_bounded(M, K)
    b = _common_lower_point(M, K) if quasi else None
    origin = (Fraction(0),) * M.dim
    if (kstar is not None and -1 < inf_m) or union_disjoint_from(
        M, origin, Fraction(1), H, K
    ):
        h_witness = origin, Fraction(1)
    elif kstar is not None:
        # k*.(origin - eps*h - k) <= -eps < inf_m at every eps above -inf_m,
        # and inf_m <= -1 here, so max(-inf_m, 0) + 1 is 1 - inf_m
        h_witness = origin, 1 - inf_m
    else:
        h_witness = None
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
