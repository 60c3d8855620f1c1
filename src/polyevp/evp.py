"""Variational descent with set-valued objectives on finite metric spaces.

A problem bundles a finite metric space (X, d), a table f mapping each
point to a finite set of vectors, an ordering cone K, a perturbation
polytope H inside K, a start point x0, and a positive eps.  The binary
relation

    x' <= x   iff   f(x) within f(x') + scale * d(x, x') * H + K

is reflexive and transitive (the perturbation family satisfies the
triangle property because H + K is convex), and the lower section S(x)
collects the points below x.  On a finite space every completeness and
closedness hypothesis of the underlying variational principle holds
automatically, so the principle's conclusions become finitely checkable:

(a) the returned point xbar lies in S(x0), and
(b) nothing else lies strictly below xbar.

The solver realizes the constructive argument directly: pick an image
y0 of x0 that escapes every eps-shifted image set (the lower-boundedness
hypothesis), score points by the cone-separation potential
xi(y) = phi(y - y0), and repeatedly move to the argmin of the current
lower section.  Each move strictly drops the score by at least
scale * step distance, so the walk terminates in at most |X| steps.
Dominance, the hypothesis check and the scores ask their questions of
`geometry.ConeHalfspaces`, from row products of the images scaled to
integers once per problem; this module never reads a halfspace row.

Three scale modes cover the standard statements: ``plain`` uses scale 1;
``scaled(eps, lam)`` uses eps/lam and additionally guarantees
d(x0, xbar) <= lam; ``efficiency(gamma)`` restricts to a feasible subset
S, uses scale gamma, requires the start point to be approximately
efficient in the shifted-set sense, and additionally guarantees
d(x0, xbar) <= eps/gamma plus a coradiant escape property of the
perturbation direction.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geometry import (
    ConeGen,
    ConeHalfspaces,
    DimensionMismatchError,
    InvalidConfigurationError,
    Polytope,
    checked_rows,
    is_pointed,
    reaches,
    scaled_H_plus_K_contains,
)
from .rational import Number, Vec, frac, frac_vec, integerize, ratio, vec_sub
from .scalarization import (
    ExtendedReal,
    InternalConsistencyError,
    SeparationFunctional,
    evaluate,
    phi_from_rows,
)

__all__ = [
    "HypothesisViolatedError",
    "ScaleMismatchWarning",
    "FiniteMetricSpace",
    "SetValuedMapTable",
    "PlainMode",
    "ScaledMode",
    "EfficiencyMode",
    "EVPProblem",
    "EVPCertificate",
    "VerificationReport",
    "dominates",
    "lower_section",
    "condition_ii_witness",
    "solve",
    "verify_certificate",
    "ae_efficient",
    "coradiant_escape_check",
]


class HypothesisViolatedError(RuntimeError):
    """The start point admits no escaping image at the requested eps.

    ``blocking`` maps each candidate image of x0 to the (point, image)
    pair that reaches it, which is exactly the data needed to see why
    the lower-boundedness hypothesis fails.
    """

    def __init__(self, message: str, blocking: dict):
        super().__init__(message)
        self.blocking = blocking


class ScaleMismatchWarning(UserWarning):
    """Scaled mode carries an eps differing from the hypothesis eps."""


@dataclass(frozen=True, init=False)
class FiniteMetricSpace:
    """Finitely many labelled points with an exact metric matrix.

    ``FiniteMetricSpace(labels, dist)`` reads each distance once with
    `rational.ratio` and keeps the integer matrix ``matrix`` over the
    common denominator ``den``, the lcm of the reduced denominators, so
    equal metrics give equal fields.  The metric axioms are checked on
    that matrix.  ``dist`` reads as rows of Fractions, built on first
    read.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, labels: Iterable[str], dist: Iterable[Iterable[Number]]) -> None:
        # validation stays in __post_init__, the hook through which
        # bench/tracer.py times the construction of every traced class
        object.__setattr__(self, "labels", labels)
        self.__post_init__(dist)

    def __post_init__(self, dist: Iterable[Iterable[Number]]) -> None:
        labels = tuple(str(l) for l in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise InvalidConfigurationError("duplicate labels in metric space")
        if not labels:
            raise InvalidConfigurationError("metric space needs at least one point")
        pairs = [[ratio(x) for x in row] for row in dist]
        n = len(labels)
        if len(pairs) != n or any(len(row) != n for row in pairs):
            raise InvalidConfigurationError("distance matrix shape does not match labels")
        den = math.lcm(*(q for row in pairs for _, q in row))
        m = tuple(tuple(p * (den // q) for p, q in row) for row in pairs)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "den", den)
        for i in range(n):
            if m[i][i] != 0:
                raise InvalidConfigurationError(f"nonzero self-distance at {labels[i]!r}")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise InvalidConfigurationError(
                        f"asymmetric distances between {labels[i]!r} and {labels[j]!r}"
                    )
                if i != j and m[i][j] <= 0:
                    raise InvalidConfigurationError(
                        f"distinct points {labels[i]!r}, {labels[j]!r} "
                        f"at distance {Fraction(m[i][j], den)}"
                    )
        # For a symmetric m, d[i][k] <= d[i][j] + d[j][k] and
        # d[j][k] <= d[j][i] + d[i][k] for every k iff every
        # |m[i][k] - m[j][k]| is at most m[i][j], so each unordered pair
        # is tested once.  A failure is searched again in (i, j, k)
        # order, so the first failing triple is the one reported.
        if not all(
            max(map(abs, map(operator.sub, m[i], m[j]))) <= m[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            i, j, k = next(
                (i, j, k)
                for i, mi in enumerate(m)
                for j, mj in enumerate(m)
                for k in range(n)
                if mi[k] > mi[j] + mj[k]
            )
            raise InvalidConfigurationError(
                "triangle inequality fails on "
                f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})"
            )

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        d = self.__dict__.get("_dist")
        if d is None:
            d = tuple(tuple(Fraction(x, self.den) for x in row) for row in self.matrix)
            object.__setattr__(self, "_dist", d)
        return d

    def _index_of(self, label: str) -> int:
        idx = self.__dict__.get("_index")
        if idx is None:
            idx = {l: i for i, l in enumerate(self.labels)}
            object.__setattr__(self, "_index", idx)
        try:
            return idx[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}") from None

    def d(self, a: str, b: str) -> Fraction:
        return Fraction(self.matrix[self._index_of(a)][self._index_of(b)], self.den)


@dataclass(frozen=True)
class SetValuedMapTable:
    """Each point's finite nonempty image list, all in one dimension."""

    entries: tuple[tuple[str, tuple[Vec, ...]], ...]

    def __post_init__(self) -> None:
        norm = []
        dim = None
        for label, images in self.entries:
            imgs = tuple(frac_vec(v) for v in images)
            if not imgs:
                raise InvalidConfigurationError(
                    f"empty image set at {label!r}: every point needs a value"
                )
            for v in imgs:
                if dim is None:
                    dim = len(v)
                elif len(v) != dim:
                    raise DimensionMismatchError(
                        f"image of {label!r} has length {len(v)}, expected {dim}"
                    )
            norm.append((str(label), imgs))
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.entries[0][1][0])

    def images(self, label: str) -> tuple[Vec, ...]:
        table = self.__dict__.get("_table")
        if table is None:
            table = dict(self.entries)
            object.__setattr__(self, "_table", table)
        try:
            return table[label]
        except KeyError:
            raise ValueError(f"no image entry for label {label!r}") from None


@dataclass(frozen=True)
class PlainMode:
    name: str = "plain"


@dataclass(frozen=True)
class ScaledMode:
    epsilon: Fraction
    lam: Fraction
    name: str = "scaled"

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", frac(self.epsilon))
        object.__setattr__(self, "lam", frac(self.lam))
        if self.epsilon <= 0 or self.lam <= 0:
            raise InvalidConfigurationError("scaled mode needs positive epsilon and lambda")


@dataclass(frozen=True)
class EfficiencyMode:
    gamma: Fraction
    name: str = "efficiency"

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", frac(self.gamma))
        if self.gamma <= 0:
            raise InvalidConfigurationError("efficiency mode needs positive gamma")


Mode = PlainMode | ScaledMode | EfficiencyMode


@dataclass(frozen=True)
class EVPProblem:
    """Immutable problem instance; validated on construction."""

    space: FiniteMetricSpace
    f: SetValuedMapTable
    K: ConeGen
    H: Polytope
    x0: str
    epsilon: Fraction
    mode: Mode = PlainMode()
    feasible: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", frac(self.epsilon))
        if self.epsilon <= 0:
            raise InvalidConfigurationError("epsilon must be positive")
        if self.feasible is None:
            object.__setattr__(self, "feasible", tuple(self.space.labels))
        else:
            object.__setattr__(self, "feasible", tuple(str(l) for l in self.feasible))
        label_set = set(self.space.labels)
        for l in self.feasible:
            if l not in label_set:
                raise InvalidConfigurationError(f"feasible point {l!r} is not in the space")
        if not self.feasible:
            raise InvalidConfigurationError("feasible set must not be empty")
        if self.x0 not in self.feasible:
            raise InvalidConfigurationError(f"start point {self.x0!r} is not feasible")
        for l in self.space.labels:
            self.f.images(l)  # raises if missing
        if self.f.dim != self.K.dim or self.f.dim != self.H.dim:
            raise DimensionMismatchError("map, cone, and polytope dimensions differ")
        # Same configuration the scalarizer needs; fail fast here with the
        # problem-level context, and keep the validated functional for the
        # solver and the verifier (a value, not a store of answers).
        object.__setattr__(self, "_separation", SeparationFunctional(self.H, self.K))
        if isinstance(self.mode, EfficiencyMode):
            if not is_pointed(self.K):
                raise InvalidConfigurationError(
                    "efficiency mode needs a pointed ordering cone"
                )
        if isinstance(self.mode, ScaledMode) and self.mode.epsilon != self.epsilon:
            warnings.warn(
                "scaled mode eps differs from the hypothesis eps; the distance "
                "bound (c) is only guaranteed when they agree",
                ScaleMismatchWarning,
                stacklevel=2,
            )

    @property
    def scale(self) -> Fraction:
        if isinstance(self.mode, ScaledMode):
            return self.mode.epsilon / self.mode.lam
        if isinstance(self.mode, EfficiencyMode):
            return self.mode.gamma
        return Fraction(1)

    def images(self, label: str) -> tuple[Vec, ...]:
        return self.f.images(label)


# ---------------------------------------------------------------------------
# the pre-order, on the halfspaces of the cone over t*H + K
# ---------------------------------------------------------------------------


def _image_products(p: EVPProblem, *cones: ConeHalfspaces) -> tuple[int, list[dict]]:
    """(scale, one {label: [row products per image]} per cone).

    Every image is scaled by one common ``scale`` to integers z, and
    each cone contributes its `ConeHalfspaces.products` of z.  Products
    are linear in z, so those of a difference of images are differences
    of these.
    """
    flat, scale = integerize([c for _, imgs in p.f.entries for y in imgs for c in y])
    it = iter(flat)
    ints = {l: [[next(it) for _ in y] for y in imgs] for l, imgs in p.f.entries}
    return scale, [
        {l: [hs.products(z) for z in zs] for l, zs in ints.items()} for hs in cones
    ]


@dataclass(frozen=True)
class _ImageRows:
    """The solver's row products, computed once per problem.

    ``plus[label][i]`` holds the products of ``plus_hs``, the cone over
    t*H + K, at image i scaled by ``scale``, and ``minus[label][i]``
    those of ``minus_hs``, the cone over t*H - K.
    """

    scale: int
    plus_hs: ConeHalfspaces
    minus_hs: ConeHalfspaces
    plus: dict[str, list[tuple[int, ...]]]
    minus: dict[str, list[tuple[int, ...]]]


def _image_rows(p: EVPProblem) -> _ImageRows:
    rows = p.__dict__.get("_image_rows")
    if rows is None:
        plus, minus = p._separation.halfspaces()
        scale, (at_plus, at_minus) = _image_products(p, plus, minus)
        rows = _ImageRows(scale, plus, minus, at_plus, at_minus)
        object.__setattr__(p, "_image_rows", rows)
    return rows


def dominates(p: EVPProblem, xprime: str, x: str) -> bool:
    """Is xprime below x, i.e. f(x) within f(xprime) + scale*d*H + K?

    Each image of f(x) must be reachable from some image of f(xprime);
    each pair is a sign check of stored integer row products
    (`_image_rows`).
    """
    rows = _image_rows(p)
    den, bounds = rows.plus_hs.bounds(p.scale * p.space.d(xprime, x) * rows.scale)
    sources = rows.plus[xprime]
    return all(
        any(reaches(den, bounds, target, src) for src in sources)
        for target in rows.plus[x]
    )


def lower_section(p: EVPProblem, x: str) -> tuple[str, ...]:
    """All feasible points below x, in label order; always contains x."""
    p.space._index_of(x)
    return tuple(l for l in p.feasible if dominates(p, l, x))


# ---------------------------------------------------------------------------
# hypothesis check and efficiency notion
# ---------------------------------------------------------------------------


def _escaping_image(
    p: EVPProblem, x: str, scope: Sequence[str], eps: Fraction
) -> tuple[Optional[int], dict]:
    """(i, blocking): i indexes the first image y0 of x that no image y of
    a point in scope reaches, y0 - y in eps*H + K, or is None when every
    image is reached; ``blocking`` maps each image before it to the first
    (point, image y) that reaches it."""
    rows = _image_rows(p)
    den, bounds = rows.plus_hs.bounds(eps * rows.scale)
    blocking: dict = {}
    for i, (y0, y0_rows) in enumerate(zip(p.images(x), rows.plus[x])):
        pair = next(
            (
                (z, y)
                for z in scope
                for y, y_rows in zip(p.images(z), rows.plus[z])
                if reaches(den, bounds, y0_rows, y_rows)
            ),
            None,
        )
        if pair is None:
            return i, blocking
        blocking[y0] = pair
    return None, blocking


def condition_ii_witness(p: EVPProblem) -> Optional[Vec]:
    """First image of x0 escaping every eps-shifted image set, if any.

    The scope is the lower section of x0, except in efficiency mode
    where the approximate-efficiency hypothesis quantifies over the
    whole feasible set.  Decided exactly on the halfspaces.
    """
    if isinstance(p.mode, EfficiencyMode):
        scope = p.feasible
    else:
        scope = lower_section(p, p.x0)
    i, _ = _escaping_image(p, p.x0, scope, p.epsilon)
    return None if i is None else p.images(p.x0)[i]


def ae_efficient(p: EVPProblem, x: str, eps: Number) -> Optional[Vec]:
    """Shifted-set approximate efficiency of x over the feasible set.

    Returns an image y0 of x such that no feasible image falls inside
    y0 - eps*H - K, or None when every candidate image is undercut.
    Decided exactly on the halfspaces.
    """
    e = frac(eps)
    if e <= 0:
        raise ValueError("eps must be positive")
    if x not in p.feasible:
        raise ValueError(f"{x!r} is not a feasible point")
    i, _ = _escaping_image(p, x, p.feasible, e)
    return None if i is None else p.images(x)[i]


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EVPCertificate:
    """Solver output with enough data to re-verify every claim.

    ``chain`` walks from x0 to xbar through the pre-order;
    ``xi_trace`` holds the exact potential minimum at each chain point
    and is strictly decreasing, by at least scale * step distance per
    move.
    """

    xbar: str
    y0: Vec
    chain: tuple[str, ...]
    xi_trace: tuple[Fraction, ...]


def solve(p: EVPProblem) -> EVPCertificate:
    """Run the descent and return a certificate for its endpoint.

    Dominance, the hypothesis check and the scores are read off the
    halfspaces of the cones over t*H + K and t*H - K with no LP, in
    exact integer arithmetic.
    """
    rows = _image_rows(p)
    # one lower section per chain point: x0's is the hypothesis scope
    # (outside efficiency mode), the bound check's range and the first
    # descent step
    section = lower_section(p, p.x0)
    scope = p.feasible if isinstance(p.mode, EfficiencyMode) else section
    witness, blocking = _escaping_image(p, p.x0, scope, p.epsilon)
    if witness is None:
        lines = [
            f"image {tuple(map(str, y0))} of {p.x0!r} is reached from "
            f"{x!r} via {tuple(map(str, y))}"
            for y0, (x, y) in blocking.items()
        ]
        raise HypothesisViolatedError(
            "lower-boundedness hypothesis fails at eps="
            f"{p.epsilon}: " + "; ".join(lines),
            blocking,
        )

    plus0, minus0 = rows.plus[p.x0][witness], rows.minus[p.x0][witness]
    score_cache: dict[str, ExtendedReal] = {}

    def score(label: str) -> ExtendedReal:
        """xi at a point: the least phi(y - y0) over its images."""
        val = score_cache.get(label)
        if val is None:
            val = min(
                phi_from_rows(
                    rows.plus_hs,
                    tuple(map(operator.sub, plus0, plus_y)),
                    rows.minus_hs,
                    tuple(map(operator.sub, minus_y, minus0)),
                    rows.scale,
                )
                for plus_y, minus_y in zip(rows.plus[label], rows.minus[label])
            )
            score_cache[label] = val
        return val

    section_min = min(score(l) for l in section)
    if not section_min.is_finite or not (-p.epsilon <= section_min.value <= 0):
        raise InternalConsistencyError(
            f"potential minimum {section_min} over the start section violates "
            f"the [-eps, 0] bound"
        )

    order = {l: i for i, l in enumerate(p.space.labels)}
    chain = [p.x0]
    current = p.x0
    for _ in range(len(p.space.labels) + 1):
        if section == (current,):
            break
        best = min(section, key=lambda l: (score(l), order[l]))
        if best == current:
            raise InternalConsistencyError(
                f"{current!r} is its own section argmin but the section has "
                f"{len(section)} points"
            )
        step = p.scale * p.space.d(current, best)
        before, after = score(current), score(best)
        if not after.is_finite or (
            before.is_finite and before.value - after.value < step
        ):
            raise InternalConsistencyError(
                f"descent step {current!r} -> {best!r} dropped the potential "
                f"by less than scale * distance"
            )
        chain.append(best)
        current = best
        section = lower_section(p, current)
    else:
        raise InternalConsistencyError("descent failed to terminate within |X| moves")

    values = []
    for label in chain:
        v = score(label)
        if not v.is_finite:
            raise InternalConsistencyError("chain point scored +inf")
        values.append(v.value)
    return EVPCertificate(
        xbar=current,
        y0=p.images(p.x0)[witness],
        chain=tuple(chain),
        xi_trace=tuple(values),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def coradiant_escape_check(p: EVPProblem, xbar: str) -> Optional[Vec]:
    """The first vertex h of H whose step d(x0, xbar)*h lies outside
    (eps/gamma)*(H + K), or None when no h in H gives such a step.

    gamma is the efficiency mode's, and 1 in any other mode.  Membership
    of d*h in the cone generated by H + K is automatic for every h in H,
    so only the exclusion needs an LP.  The set {h : d*h in r*(H + K)} is
    convex, so H lies inside it exactly when every vertex does: one
    membership LP per vertex decides the question for all of H, and None
    is a refutation.  At d = 0 the step is the origin, which avoids every
    r*(H + K) because the problem's `SeparationFunctional` certified that
    it avoids H + K; H's first vertex escapes with no LP.
    """
    gamma = p.mode.gamma if isinstance(p.mode, EfficiencyMode) else 1
    ratio = p.epsilon / gamma
    dist = p.space.d(p.x0, xbar)
    if dist == 0:
        return p.H.vertices[0]
    for h in p.H.vertices:
        if not scaled_H_plus_K_contains(p.H, p.K, tuple(dist * c for c in h), ratio):
            return h
    return None


@dataclass(frozen=True)
class VerificationReport:
    """Independent brute-force re-check of a certificate.

    ``a``: xbar lies below x0.  ``b``: no other feasible point lies below
    xbar.  ``c`` (scale modes only): the walk stayed within the promised
    radius.  ``coradiant_gap`` (efficiency mode): some h in H steps
    outside the scaled coradiant set (`coradiant_escape_check`); False
    refutes that for every h in H.  The chain, trace, and
    hypothesis-witness checks guard the certificate's own bookkeeping.  ``failures`` names the failed
    checks; a ``c`` or ``coradiant_gap`` of None is not a failure.
    """

    a: bool
    b: bool
    c: Optional[bool]
    coradiant_gap: Optional[bool]
    chain_valid: bool
    trace_consistent: bool
    witness_valid: bool

    @property
    def failures(self) -> tuple[str, ...]:
        checks = (
            ("(a)", self.a),
            ("(b)", self.b),
            ("(c)", self.c),
            ("(coradiant gap)", self.coradiant_gap),
            ("(chain)", self.chain_valid),
            ("(witness)", self.witness_valid),
            ("(trace)", self.trace_consistent),
        )
        return tuple(name for name, ok in checks if ok is not None and not ok)

    @property
    def passed(self) -> bool:
        return not self.failures


class _CheckedRelation:
    """The pre-order and the hypothesis check as the verifier decides them.

    Shares no answer with the solver.  A "no" for "y - ysrc in t*H + K"
    is a Farkas certificate: a row of ``halfspaces``, the rows of the
    problem's cone over t*H + K that `geometry.checked_rows` has found
    nonnegative on every generator (h, 1) and (k, 0), taken from H and K
    directly, that is negative at (y - ysrc, t) (`geometry.reaches`).
    Such a row is nonnegative on the whole cone, so the point lies
    outside.  A row that fails the check is dropped, and a point that no
    checked row excludes goes to the membership LP, so every "yes" is an
    exact LP answer.
    """

    def __init__(self, p: EVPProblem):
        self.p = p
        plus, _ = p._separation.halfspaces()
        self.halfspaces = checked_rows(plus, p.H, p.K, 1)
        self.scale, (self.products,) = _image_products(p, self.halfspaces)
        self._dominance: dict = {}

    def _in_sum(self, y: Vec, ysrc: Vec, prod, prod_src, t: Fraction) -> bool:
        if not reaches(*self.halfspaces.bounds(t * self.scale), prod, prod_src):
            return False  # a checked row is negative at (y - ysrc, t)
        return scaled_H_plus_K_contains(self.p.H, self.p.K, vec_sub(y, ysrc), t)

    def dominates(self, xprime: str, x: str) -> bool:
        key = (xprime, x)
        ans = self._dominance.get(key)
        if ans is None:
            p = self.p
            t = p.scale * p.space.d(x, xprime)
            sources = list(zip(p.images(xprime), self.products[xprime]))
            ans = all(
                any(self._in_sum(y, ys, prod, ps, t) for ys, ps in sources)
                for y, prod in zip(p.images(x), self.products[x])
            )
            self._dominance[key] = ans
        return ans

    def escapes(self, y0: Vec) -> bool:
        """Is y0, an image of x0, outside y - eps*H - K for every image y
        of every point in the hypothesis scope?  Whether a point is in
        the scope is asked only of points with a reaching image."""
        p = self.p
        prod0 = self.products[p.x0][p.images(p.x0).index(y0)]
        efficiency = isinstance(p.mode, EfficiencyMode)
        for x in p.feasible:
            if any(
                self._in_sum(y0, y, prod0, prod, p.epsilon)
                for y, prod in zip(p.images(x), self.products[x])
            ) and (efficiency or self.dominates(x, p.x0)):
                return False
        return True


def _lp_potential(p: EVPProblem, label: str, y0: Vec) -> ExtendedReal:
    """xi at a point by the LP route: the least phi(y - y0) over its images."""
    return min(evaluate(p._separation, vec_sub(y, y0)) for y in p.images(label))


def verify_certificate(p: EVPProblem, cert: EVPCertificate) -> VerificationReport:
    """Re-check every conclusion from scratch; never raises on failure.

    The route is independent of the solver's.  Dominance and the
    hypothesis witness are decided by `_CheckedRelation`: each "no" by a
    halfspace row the verifier has checked against H and K itself, each
    "yes" by an exact membership LP, sharing no answer with the solver.
    The trace is re-scored by the LP `evaluate`.
    """
    rel = _CheckedRelation(p)
    a = rel.dominates(cert.xbar, p.x0)
    b = all(
        not rel.dominates(x, cert.xbar)
        for x in p.feasible
        if x != cert.xbar
    )

    c: Optional[bool] = None
    if isinstance(p.mode, ScaledMode):
        c = p.space.d(p.x0, cert.xbar) <= p.mode.lam
    elif isinstance(p.mode, EfficiencyMode):
        c = p.space.d(p.x0, cert.xbar) <= p.epsilon / p.mode.gamma

    gap: Optional[bool] = None
    if isinstance(p.mode, EfficiencyMode):
        gap = coradiant_escape_check(p, cert.xbar) is not None

    chain_valid = (
        len(cert.chain) >= 1
        and cert.chain[0] == p.x0
        and cert.chain[-1] == cert.xbar
        and all(l in p.feasible for l in cert.chain)
        and all(z1 != z2 for z1, z2 in zip(cert.chain, cert.chain[1:]))
        and all(rel.dominates(z2, z1) for z1, z2 in zip(cert.chain, cert.chain[1:]))
    )
    y0 = frac_vec(cert.y0)
    witness_valid = y0 in set(p.images(p.x0)) and rel.escapes(y0)

    trace_consistent = len(cert.xi_trace) == len(cert.chain)
    if trace_consistent and chain_valid and witness_valid:
        for label, claimed in zip(cert.chain, cert.xi_trace):
            actual = _lp_potential(p, label, y0)
            if not actual.is_finite or actual.value != claimed:
                trace_consistent = False
                break
        if trace_consistent:
            for (z1, v1), (z2, v2) in zip(
                zip(cert.chain, cert.xi_trace), zip(cert.chain[1:], cert.xi_trace[1:])
            ):
                if frac(v1) - frac(v2) < p.scale * p.space.d(z1, z2):
                    trace_consistent = False
                    break
    return VerificationReport(
        a=a,
        b=b,
        c=c,
        coradiant_gap=gap,
        chain_valid=chain_valid,
        trace_consistent=trace_consistent,
        witness_valid=witness_valid,
    )
