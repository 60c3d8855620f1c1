"""Polyhedral representations and the membership oracles built on them.

Three value types cover every set this package manipulates:

* ``ConeGen``: a finitely generated convex cone, kept in generator form.
* ``Polytope``: a vertex-represented convex compact set.
* ``VPolyhedralUnion``: a finite union of (vertices + rays) pieces, for
  ranges of set-valued maps that may be unbounded.

The membership oracles answer each question with one exact LP over the
generators and vertices, built in integers by `lp_core.combination_lp`
from the integer forms below.  For a question asked many times about
one pair (H, K) at varying scale t, `homogenized_halfspaces` makes and
checks the rows of the cone over t*H +- K, once: `cone_halfspaces`
converts its integer generators (h, 1) and (+-k, 0) into rows by the
double description method, and `checked_rows` keeps the rows that
`rational.nonnegative_on` accepts on all of them.  So no "no" read from
a row depends on the construction being right, and "z in t*H +- K" for
every t >= 0 is a sign check of integer row products, with no LP.
`ConeHalfspaces` owns that row list: its `products`, `bounds` with
`reaches`, and `scale_range` answer every such question, so no other
module reads a row.  `ConeHalfspaces.contains` is how `evp` and
`scalarization` ask "z in T*H +- K", and "z in +-K" at T = 0: a checked
row negative at the point says no, integer weights from a walk down the
faces the rows name, accepted by `rational.combines_to`, say yes, and
one LP over the `homogenized_generators` decides the rest.  So
`scaled_H_plus_K_contains` and `scaled_H_minus_K_contains` have no
package caller; they stay as the tests' reference oracles, and the
benchmark's tracer binds both by name.

Integers are formed once per value.  `ConeGen`, `Polytope` and
`VPolyhedralUnion` each keep their vectors' `rational.integerize` forms,
(ints, den) with vector == ints / den, built on first use and cached on
the instance.  The membership LPs and `homogenized_generators` read
them, as does `weights_certify_scaled_H_minus_K` at the end of this
module, which hands an LP's own weights for "y in t*H - K" to
`rational.combines_to`.  Query points are scaled to integers by
`rational.integerize` as they come.

Three error classes serve the whole package.  `DimensionMismatchError`
and `InvalidConfigurationError` are `ValueError`s for bad input.
`InternalConsistencyError` marks a result that contradicts an invariant
already checked, such as a dual witness that fails its exact check: a
bug, never bad input.  `boundedness`, `scalarization` and `evp` raise
it, each importing it from here, and the command line exits 3 on it.

A note on closures: sums of polytopes and finitely generated cones are
closed, so the distinction between a set, its topological closure, and
its directional (vector) closure collapses for everything representable
here.  Predicate names therefore talk about the sets themselves.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .lp_core import IntForm, combination_lp, solve
from .rational import (
    Number, Vec, combines_to, frac, frac_vec, idot, integerize, nonnegative_on,
)

__all__ = [
    "DimensionMismatchError",
    "InvalidConfigurationError",
    "InternalConsistencyError",
    "ConeGen",
    "ConeHalfspaces",
    "Polytope",
    "VPolyhedralUnion",
    "cone_contains",
    "checked_rows",
    "cone_halfspaces",
    "homogenized_generators",
    "homogenized_halfspaces",
    "reaches",
    "scaled_H_minus_K_contains",
    "scaled_H_plus_K_contains",
    "zero_notin_H_plus_K",
    "union_disjoint_from",
    "check_dim",
    "weights_certify_scaled_H_minus_K",
]


class DimensionMismatchError(ValueError):
    """A vector's length does not match the ambient dimension."""


class InvalidConfigurationError(ValueError):
    """Inputs violate a structural requirement (e.g. H not inside K)."""


class InternalConsistencyError(RuntimeError):
    """A result contradicts a validated invariant; indicates a bug."""


def check_dim(dim: int, v: Sequence, what: str) -> None:
    """Raise `DimensionMismatchError`, naming ``v`` as ``what``, unless
    ``v`` has length ``dim``."""
    if len(v) != dim:
        raise DimensionMismatchError(
            f"{what} has length {len(v)}, expected dimension {dim}"
        )


IntForms = tuple[IntForm, ...]


def _integer_forms(vectors: Sequence[Vec]) -> IntForms:
    """(ints, den) per vector, with vector == ints / den (`integerize`)."""
    return tuple((tuple(ints), den) for ints, den in map(integerize, vectors))


@dataclass(frozen=True)
class ConeGen:
    """Convex cone of all nonnegative combinations of ``generators``."""

    dim: int
    generators: tuple[Vec, ...]

    def __post_init__(self) -> None:
        gens = tuple(frac_vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            check_dim(self.dim, g, "cone generator")
            if all(c == 0 for c in g):
                raise InvalidConfigurationError("zero vector is not a valid generator")

    @functools.cached_property
    def integer_generators(self) -> IntForms:
        """(ints, den) per generator (`integerize`), formed on first use."""
        return _integer_forms(self.generators)


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
            check_dim(self.dim, v, "polytope vertex")

    @functools.cached_property
    def integer_vertices(self) -> IntForms:
        """(ints, den) per vertex (`integerize`), formed on first use."""
        return _integer_forms(self.vertices)


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
                check_dim(self.dim, v, "piece vertex")
            for r in rays:
                check_dim(self.dim, r, "piece ray")
            norm.append((verts, rays))
        object.__setattr__(self, "pieces", tuple(norm))

    def all_rays(self) -> list[Vec]:
        return [r for _, rays in self.pieces for r in rays]

    @functools.cached_property
    def integer_pieces(self) -> tuple[tuple[IntForms, IntForms], ...]:
        """(vertex forms, ray forms) per piece, each an (ints, den) per
        vector (`integerize`), formed on first use."""
        return tuple((_integer_forms(v), _integer_forms(r)) for v, r in self.pieces)

    @functools.cached_property
    def integer_vertices(self) -> IntForms:
        """(ints, den) per piece vertex, piece by piece."""
        return tuple(f for verts, _ in self.integer_pieces for f in verts)

    @functools.cached_property
    def integer_rays(self) -> IntForms:
        """(ints, den) per ray, in `all_rays` order."""
        return tuple(f for _, rays in self.integer_pieces for f in rays)


# ---------------------------------------------------------------------------
# membership oracles
# ---------------------------------------------------------------------------


def cone_contains(K: ConeGen, y: Sequence[Number]) -> bool:
    """Is y a nonnegative combination of the generators?"""
    yv = frac_vec(y)
    check_dim(K.dim, yv, "query point")
    lp = combination_lp(yv, [(K.integer_generators, 1, False)])
    return solve(lp).is_feasible


def _in_scaled_sum(
    H: Polytope, K: ConeGen, y: Sequence[Number], t: Number, k_sign: int
) -> bool:
    """Does y lie in t*H + k_sign*K?  The one membership LP behind the
    three oracles below."""
    yv = frac_vec(y)
    tq = frac(t)
    check_dim(H.dim, yv, "query point")
    if H.dim != K.dim:
        raise DimensionMismatchError("polytope and cone dimensions differ")
    blocks = [(H.integer_vertices, tq, True), (K.integer_generators, k_sign, False)]
    lp = combination_lp(yv, blocks)
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
    check_dim(M.dim, y0v, "anchor point")
    if not (M.dim == H.dim == K.dim):
        raise DimensionMismatchError("union, polytope, and cone dimensions differ")
    for verts, rays in M.integer_pieces:
        # piece weights and H weights each sum to one
        blocks = [
            (verts, 1, True), (rays, 1, False), (H.integer_vertices, e, True),
            (K.integer_generators, 1, False),
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

    `checked_rows` also keeps the ``generators`` and ``at_generators``,
    each row's products with them, for `contains`.  Lists compare by
    their rows.
    """

    rows: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    at_generators: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

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

    @functools.cached_property
    def _faces(self):
        """Per generator, its row products and the rows positive on it;
        per row, the bit mask of generators zero on it; and the mask of
        generators with a positive row."""
        rows = self.at_generators
        cols = [tuple(ps[g] for ps in rows) for g in range(len(self.generators))]
        positive = [tuple(r for r, c in enumerate(col) if c > 0) for col in cols]
        zero_on = [sum(1 << g for g, c in enumerate(ps) if c == 0) for ps in rows]
        return cols, positive, zero_on, sum(1 << g for g, rs in enumerate(positive) if rs)

    def decompose(self, w: Sequence[int], values: Sequence[int]):
        """(c, q) with integers c >= 0, one per generator g, q > 0 and
        sum c * g == q * w, or None, for an integer point w whose row
        products ``values`` are all >= 0.

        A walk down the faces (Caratheodory): F, the generators zero on
        every row made tight so far, starts as all of them.  Each step
        takes the first g in F with a positive row, the least ratio
        v / a = (row . w) / (row . g) over those rows, and sets
        w <- a*w - v*g, c <- a*c + v at g, q <- a*q; that row is now
        tight, and F keeps the generators zero on it.  The walk ends with
        (c, q) at w = 0, and with None when no g in F has a positive row.
        On the complete rows of a pointed cone it always reaches 0.
        """
        cols, positive, zero_on, movable = self._faces
        c, q, face = [0] * len(self.generators), 1, (1 << len(self.generators)) - 1
        while any(w):
            m = face & movable
            if not m:
                return None
            g = (m & -m).bit_length() - 1
            col, best = cols[g], positive[g][0]
            for r in positive[g]:
                if values[r] * col[best] < values[best] * col[r]:
                    best = r
            v, a = values[best], col[best]
            if v:
                w = [a * x - v * y for x, y in zip(w, self.generators[g])]
                values = [a * x - v * y for x, y in zip(values, col)]
                c = [a * x for x in c]
                c[g] += v
                q *= a
            face &= zero_on[best]
        return c, q

    def contains(self, z: Sequence[int], at_z: Sequence[int], num: int, den: int) -> bool:
        """Is (z, num/den) in the cone, for ``at_z`` = `products`(z),
        num >= 0 and den > 0, on a `checked_rows` list?  At (den * z, num)
        a row negative says no, whatever the rows; `decompose`'s weights,
        if `rational.combines_to` accepts them, say yes; else one LP over
        the list's own ``generators`` decides."""
        w = [den * x for x in z] + [num]
        at_w = [den * x + a * num for x, a in zip(at_z, self.t_coefficients)]
        if min(at_w, default=0) < 0:
            return False
        found = self.decompose(w, at_w)
        if found is not None and combines_to(
            found[0], self.generators, [found[1] * x for x in w]
        ):
            return True
        lp = combination_lp(w, [([(g, 1) for g in self.generators], 1, False)])
        return solve(lp).is_feasible


def reaches(den: int, bounds: Sequence[int], target, source) -> bool:
    """Does (z - zsrc, T) lie in the cone, given (den, bounds) =
    `ConeHalfspaces.bounds`(T) and the row products of z (``target``)
    and zsrc (``source``)?  A sign check per row."""
    for a, b, c in zip(target, source, bounds):
        if den * (a - b) < c:
            return False
    return True


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
        vals = [idot(g, b) for b in lin]
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
                _primitive([v * x - idot(g, r) * y for x, y in zip(r, b)])
                for r in rays
            ]
            # b lay in the lineality space, so constraints 0..i-1 are tight on it
            tight = [t | 1 << i for t in tight] + [(1 << i) - 1]
            rays.append(b)
            continue
        vals = [idot(g, r) for r in rays]
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
    # (h, 1) times h's denominator lcm is (ints, den); (k_sign * k, 0) is k_sign * ints
    gens = [h + (den,) for h, den in H.integer_vertices]
    gens += [tuple(k_sign * c for c in k) + (0,) for k, _ in K.integer_generators]
    return tuple(gens)


def checked_rows(hs: ConeHalfspaces, gens: Sequence[Sequence[int]]) -> ConeHalfspaces:
    """The rows of hs nonnegative on every generator in ``gens``, kept in
    order.

    A kept row is nonnegative on the whole cone that ``gens`` generates,
    so a point where it is negative lies outside, whatever produced the
    rows.
    """
    kept = [(r, ps) for r in hs.rows if (ps := nonnegative_on(r, gens)) is not None]
    return ConeHalfspaces(
        tuple(r for r, _ in kept), tuple(map(tuple, gens)), tuple(ps for _, ps in kept)
    )


def homogenized_halfspaces(H: Polytope, K: ConeGen, k_sign: int) -> ConeHalfspaces:
    """The checked rows of the cone over t*H + k_sign*K in R^(dim+1).

    `cone_halfspaces` of the `homogenized_generators`, kept by
    `checked_rows` on those same generators, which are formed from H and
    K directly.  So every row (a, c) has a . h + c >= 0 at every vertex h
    and a . (k_sign * k) >= 0 at every generator k: a point where a row
    is negative lies outside the cone, and for k_sign = 1 a row with
    a . h > 0 (`ConeHalfspaces.products`) at a point h is a Farkas
    certificate for -h outside K.  With a correct double description the
    a parts of the rows generate the dual cone of K, so every vertex of
    H outside -K has such a row; a faulty one can drop a facet, letting
    more points in, but never hands out a row a generator violates.
    """
    gens = homogenized_generators(H, K, k_sign)
    return checked_rows(cone_halfspaces(gens, len(gens[0])), gens)


# ---------------------------------------------------------------------------
# certificate checks: integer arithmetic on the value types' integer forms
# ---------------------------------------------------------------------------


def weights_certify_scaled_H_minus_K(
    H: Polytope, K: ConeGen, y: Sequence[Fraction], t: Fraction, weights: Sequence[Fraction]
) -> bool:
    """Do ``weights``, mu per vertex h of H and then w per generator k of
    K, show y in t*H - K?

    They do when every weight is nonnegative, sum mu = |t| and
    y = sign(t) * sum mu h - sum w k: for t != 0, sum mu h / |t| is a
    point of H, and for t = 0 every mu is 0 and y = -sum w k.  That is,
    (sign(t) * y, |t|) = sum mu (h, 1) + sum w (-sign(t) * k, 0), which
    `combines_to` checks on the `homogenized_generators`(H, K, -sign(t)),
    den * (h, 1) or den * (-+k, 0) each, with w / den for a weight w.
    """
    dens = [d for _, d in H.integer_vertices + K.integer_generators]
    if len(weights) != len(dens):
        return False
    sign = -1 if t < 0 else 1
    point = [sign * c for c in y] + [abs(t)]
    ints, _ = integerize([w / d for w, d in zip(weights, dens)] + point)
    gens = homogenized_generators(H, K, -sign)
    return combines_to(ints[: len(dens)], gens, ints[len(dens):])
