"""Polyhedral representations and the membership oracles built on them.

Three value types cover every set this package manipulates:

* ``ConeGen``: a finitely generated convex cone, kept in generator form.
* ``Polytope``: a vertex-represented convex compact set.
* ``VPolyhedralUnion``: a finite union of (vertices + rays) pieces, for
  ranges of set-valued maps that may be unbounded.

The membership oracles answer each question with one exact LP over the
generators and vertices, built by `lp_core.combination_lp`.  For a
question asked many times about one pair (H, K) at varying scale t,
`homogenized_generators` forms the integer generators (h, 1) and
(+-k, 0) of the cone over t*H +- K, and `cone_halfspaces` converts that
cone once into integer rows by the double description method; then
"z in t*H +- K" for every t >= 0 is a sign check of integer row
products, with no LP.  `ConeHalfspaces` owns that row list: its
`products`, `bounds` with `reaches`, and `scale_range` answer every
such question, so no other module reads a row.  `checked_rows` keeps
the rows that are nonnegative on every generator of that cone, so a
caller that answers "no" from them never depends on the construction
being right.  Points and generators are scaled to integers by
`rational.integerize`.

A note on closures: sums of polytopes and finitely generated cones are
closed, so the distinction between a set, its topological closure, and
its directional (vector) closure collapses for everything representable
here.  Predicate names therefore talk about the sets themselves.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lp_core import combination_lp, solve
from .rational import Number, Vec, frac, frac_vec, integerize

__all__ = [
    "DimensionMismatchError",
    "InvalidConfigurationError",
    "ConeGen",
    "ConeHalfspaces",
    "Polytope",
    "VPolyhedralUnion",
    "cone_contains",
    "is_pointed",
    "checked_rows",
    "cone_halfspaces",
    "homogenized_generators",
    "reaches",
    "scaled_H_minus_K_contains",
    "scaled_H_plus_K_contains",
    "zero_notin_H_plus_K",
    "union_disjoint_from",
]


class DimensionMismatchError(ValueError):
    """A vector's length does not match the ambient dimension."""


class InvalidConfigurationError(ValueError):
    """Inputs violate a structural requirement (e.g. H not inside K)."""


def _check_dim(dim: int, v: Sequence, what: str) -> None:
    if len(v) != dim:
        raise DimensionMismatchError(
            f"{what} has length {len(v)}, expected dimension {dim}"
        )


@dataclass(frozen=True)
class ConeGen:
    """Convex cone of all nonnegative combinations of ``generators``."""

    dim: int
    generators: tuple[Vec, ...]

    def __post_init__(self) -> None:
        gens = tuple(frac_vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            _check_dim(self.dim, g, "cone generator")
            if all(c == 0 for c in g):
                raise InvalidConfigurationError("zero vector is not a valid generator")


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a finite nonempty vertex list."""

    dim: int
    vertices: tuple[Vec, ...]

    def __post_init__(self) -> None:
        verts = tuple(frac_vec(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise InvalidConfigurationError("a polytope needs at least one vertex")
        for v in verts:
            _check_dim(self.dim, v, "polytope vertex")


@dataclass(frozen=True)
class VPolyhedralUnion:
    """Union of pieces conv(vertices) + cone(rays), one tuple pair each."""

    dim: int
    pieces: tuple[tuple[tuple[Vec, ...], tuple[Vec, ...]], ...]

    def __post_init__(self) -> None:
        norm = []
        if not self.pieces:
            raise InvalidConfigurationError("the union needs at least one piece")
        for verts, rays in self.pieces:
            verts = tuple(frac_vec(v) for v in verts)
            rays = tuple(frac_vec(r) for r in rays)
            if not verts:
                raise InvalidConfigurationError("each piece needs at least one vertex")
            for v in verts:
                _check_dim(self.dim, v, "piece vertex")
            for r in rays:
                _check_dim(self.dim, r, "piece ray")
            norm.append((verts, rays))
        object.__setattr__(self, "pieces", tuple(norm))

    def all_rays(self) -> list[Vec]:
        return [r for _, rays in self.pieces for r in rays]

    def all_vertices(self) -> list[Vec]:
        return [v for verts, _ in self.pieces for v in verts]


# ---------------------------------------------------------------------------
# membership oracles
# ---------------------------------------------------------------------------


def cone_contains(K: ConeGen, y: Sequence[Number]) -> bool:
    """Is y a nonnegative combination of the generators?"""
    yv = frac_vec(y)
    _check_dim(K.dim, yv, "query point")
    lp = combination_lp(yv, [(K.generators, 1, False)])
    return solve(lp).is_feasible


def is_pointed(K: ConeGen) -> bool:
    """Does K meet -K only at the origin?

    With generator data that fails exactly when some -g lies back in the
    cone: at most one membership LP per generator.
    """
    return all(not cone_contains(K, tuple(-c for c in g)) for g in K.generators)


def _in_scaled_sum(
    H: Polytope, K: ConeGen, y: Sequence[Number], t: Number, k_sign: int
) -> bool:
    """Does y lie in t*H + k_sign*K?  The one membership LP behind the
    three oracles below."""
    yv = frac_vec(y)
    tq = frac(t)
    _check_dim(H.dim, yv, "query point")
    if H.dim != K.dim:
        raise DimensionMismatchError("polytope and cone dimensions differ")
    lp = combination_lp(yv, [(H.vertices, tq, True), (K.generators, k_sign, False)])
    return solve(lp).is_feasible


def scaled_H_minus_K_contains(
    H: Polytope,
    K: ConeGen,
    y: Sequence[Number],
    t: Number,
) -> bool:
    """Does y lie in t*H - K for the fixed scale t?"""
    return _in_scaled_sum(H, K, y, t, -1)


def scaled_H_plus_K_contains(
    H: Polytope,
    K: ConeGen,
    y: Sequence[Number],
    t: Number,
) -> bool:
    """Does y lie in t*H + K for the fixed scale t >= 0?"""
    return _in_scaled_sum(H, K, y, t, 1)


def zero_notin_H_plus_K(H: Polytope, K: ConeGen) -> bool:
    """Certify that the origin avoids H + K (always decided exactly).

    H + K is closed here, so this single LP settles the strict separation
    condition every downstream construction relies on.
    """
    return not _in_scaled_sum(H, K, (Fraction(0),) * H.dim, 1, 1)


def union_disjoint_from(
    M: VPolyhedralUnion,
    y0: Sequence[Number],
    eps: Number,
    H: Polytope,
    K: ConeGen,
) -> bool:
    """Is the union disjoint from the shifted lower set y0 - eps*H - K?

    One feasibility LP per piece; disjointness holds iff every piece's
    intersection program is infeasible.
    """
    e = frac(eps)
    if e <= 0:
        raise ValueError("eps must be positive")
    y0v = frac_vec(y0)
    _check_dim(M.dim, y0v, "anchor point")
    if not (M.dim == H.dim == K.dim):
        raise DimensionMismatchError("union, polytope, and cone dimensions differ")
    for verts, rays in M.pieces:
        # piece weights and H weights each sum to one
        blocks = [
            (verts, 1, True), (rays, 1, False), (H.vertices, e, True),
            (K.generators, 1, False),
        ]
        if solve(combination_lp(y0v, blocks)).is_feasible:
            return False
    return True


# ---------------------------------------------------------------------------
# halfspace representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeHalfspaces:
    """The cone {w : r . w >= 0 for each row r} in integer rows; an
    equality is a row and its negation (see `cone_halfspaces`).

    For a homogenized cone, the cone over t*H +- K in R^(dim+1), each
    row is (a_z, a_t) with the scale's coefficient a_t last.  The
    methods below answer "(z, T) in the cone" for an integer point z
    from its row products a_z . z, so callers never read a row.
    """

    rows: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def t_coefficients(self) -> tuple[int, ...]:
        """The last entry of each row: the scale's coefficient in a
        homogenized cone."""
        return tuple(r[-1] for r in self.rows)

    def products(self, z: Sequence[int]) -> tuple[int, ...]:
        """a_z . z for every row (a_z, a_t) of a homogenized cone."""
        # map stops at the end of z, leaving out each row's last entry a_t
        return tuple(sum(map(operator.mul, r, z)) for r in self.rows)

    def bounds(self, T: Fraction) -> tuple[int, list[int]]:
        """(den, bounds) with (z - zsrc, T) in the cone iff every row has
        den * (a_z . z - a_z . zsrc) >= its bound (`reaches`): with
        T = num/den, a_z . (z - zsrc) + a_t * num/den >= 0 times den."""
        n = -T.numerator
        return T.denominator, [c * n for c in self.t_coefficients]

    def scale_range(self, products: Sequence[int]):
        """The scales T >= 0 with (z, T) in the cone, for
        ``products`` = `products`(z).

        None when there are none; otherwise (lo, hi), each end a pair
        (numerator, positive denominator) and hi None for no upper end.
        """
        lo_n, lo_d = 0, 1
        hi = None
        for a, c in zip(self.t_coefficients, products):
            if a > 0:
                if -c * lo_d > lo_n * a:
                    lo_n, lo_d = -c, a
            elif a < 0:
                if hi is None or c * hi[1] < hi[0] * -a:
                    hi = (c, -a)
            elif c < 0:
                return None
        if hi is not None and lo_n * hi[1] > hi[0] * lo_d:
            return None
        return (lo_n, lo_d), hi


def reaches(den: int, bounds: Sequence[int], target, source) -> bool:
    """Does (z - zsrc, T) lie in the cone, given (den, bounds) =
    `ConeHalfspaces.bounds`(T) and the row products of z (``target``)
    and zsrc (``source``)?  A sign check per row."""
    for a, b, c in zip(target, source, bounds):
        if den * (a - b) < c:
            return False
    return True


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def cone_halfspaces(generators: Sequence[Sequence[int]], dim: int) -> ConeHalfspaces:
    """Halfspaces of cone(generators), for integer generators in R^dim.

    The rows generate the dual cone {a : a . g >= 0 for each generator g}:
    its extreme rays A, then a basis E of its lineality space, the
    orthogonal complement of the generators' span, then -E; by duality
    the cone is {w : r . w >= 0 for each row r}, with E w = 0 exactly.
    The dual cone is built by the double description method (Motzkin et
    al. 1953; Fukuda & Prodon 1996), starting from the whole space and
    adding a . g >= 0 one generator at a time:

    * if g is not orthogonal to some lineality vector b, oriented so
      that g . b > 0, then b becomes a ray and every other lineality
      vector and ray is moved along b onto the hyperplane g . a = 0;
    * otherwise rays with g . r >= 0 stay, and each adjacent pair of a
      positive and a negative ray adds the ray where their segment meets
      the hyperplane.  Two rays are adjacent when no third ray is tight
      on every constraint both are tight on.

    Arithmetic is on integers, each vector divided by its gcd.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []  # per ray, bit i set when constraint i is tight
    for i, g in enumerate(generators):
        vals = [_idot(g, b) for b in lin]
        j = next((j for j, v in enumerate(vals) if v), None)
        if j is not None:
            b, v = lin.pop(j), vals.pop(j)
            if v < 0:
                b, v = tuple(-c for c in b), -v
            lin = [
                _primitive([v * x - w * y for x, y in zip(c, b)])
                for c, w in zip(lin, vals)
            ]
            rays = [
                _primitive([v * x - _idot(g, r) * y for x, y in zip(r, b)])
                for r in rays
            ]
            # b lay in the lineality space, so constraints 0..i-1 are tight on it
            tight = [t | 1 << i for t in tight] + [(1 << i) - 1]
            rays.append(b)
            continue
        vals = [_idot(g, r) for r in rays]
        kept = [
            (r, t | 1 << i if v == 0 else t)
            for r, t, v in zip(rays, tight, vals)
            if v >= 0
        ]
        need = dim - len(lin) - 2
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in enumerate(vals):
                if vq >= 0:
                    continue
                common = tight[p] & tight[q]
                if common.bit_count() < need or any(
                    k != p and k != q and t & common == common
                    for k, t in enumerate(tight)
                ):
                    continue
                ray = _primitive([vp * x - vq * y for x, y in zip(rays[q], rays[p])])
                kept.append((ray, common | 1 << i))
        rays = [r for r, _ in kept]
        tight = [t for _, t in kept]
    return ConeHalfspaces(tuple(rays + lin + [tuple(-c for c in b) for b in lin]))


def homogenized_generators(
    H: Polytope, K: ConeGen, k_sign: int
) -> tuple[tuple[int, ...], ...]:
    """Generators of the cone over t*H + k_sign*K in R^(dim+1): (h, 1)
    for the vertices h of H and (k_sign * k, 0) for the generators k of
    K, each a positive multiple in integers (`integerize`).

    H is bounded and nonempty, so for every t >= 0 the pair (z, t) lies
    in that cone exactly when z lies in t*H + k_sign*K; at t = 0 the
    H-weights must vanish and the test reads z in k_sign*K.
    """
    if H.dim != K.dim:
        raise DimensionMismatchError("polytope and cone dimensions differ")
    one, zero = Fraction(1), Fraction(0)
    gens = [h + (one,) for h in H.vertices]
    gens += [tuple(k_sign * c for c in k) + (zero,) for k in K.generators]
    return tuple(tuple(integerize(g)[0]) for g in gens)


def checked_rows(hs: ConeHalfspaces, gens: Sequence[Sequence[int]]) -> ConeHalfspaces:
    """The rows of hs nonnegative on every generator in ``gens``, kept in
    order.

    A kept row is nonnegative on the whole cone that ``gens`` generates,
    so a point where it is negative lies outside, whatever produced the
    rows.  For the cone over t*H +- K, ``gens`` are
    `homogenized_generators`: positive integer multiples of (h, 1) and
    (+-k, 0), formed from H and K directly, which keeps every sign.
    """
    return ConeHalfspaces(
        tuple(r for r in hs.rows if all(_idot(r, g) >= 0 for g in gens))
    )
