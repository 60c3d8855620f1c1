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
xi(y) = phi(y - y0), and move at most once, to the argmin x1 of xi over
S(x0).  Nothing else lies below x1, the ordering principle of Brezis and
Browder on a finite set: a point z != x1 below x1 lies in S(x0) by
transitivity, and since xi(x1) <= 0 the step argument of
`verify_certificate` gives xi(z) <= xi(x1) - scale * d(z, x1) < xi(x1),
against the choice of x1.  So a second move is never possible.
Dominance, the hypothesis check and the scores ask their questions of
`geometry.ConeHalfspaces`, from row products of the images with the
functional's checked rows (`SeparationFunctional.halfspaces`), which the
solver and the verifier share.  The images are scaled to integers once
per problem (`EVPProblem._scaled_images`), and one class, `_ImageRows`,
forms their row products; the solver and the verifier each keep their
own instance.  This module never reads a halfspace row.

Three scale modes cover the standard statements: ``plain`` uses scale 1;
``scaled(lam)`` uses eps/lam, with the problem's own eps, and
additionally guarantees d(x0, xbar) <= lam; ``efficiency(gamma)``
restricts to a feasible subset S, uses scale gamma, requires the start
point to be approximately efficient in the shifted-set sense, and
additionally guarantees d(x0, xbar) <= eps/gamma plus a coradiant escape
property of the perturbation direction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Optional, Sequence

from .geometry import (
    ConeGen,
    ConeHalfspaces,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidConfigurationError,
    Polytope,
    is_pointed,
    reaches,
    scaled_H_minus_K_contains,
    scaled_H_plus_K_contains,
)
from .rational import Number, Vec, frac, frac_vec, integerize, ratio, vec_sub
from .scalarization import (
    ExtendedReal,
    SeparationFunctional,
    evaluate,
    phi_from_rows,
    phi_lower_bound,
)

__all__ = [
    "HypothesisViolatedError",
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
    "solve",
    "verify_certificate",
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


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finitely many labelled points with an exact metric matrix.

    ``FiniteMetricSpace(labels, dist)`` keeps the integer matrix
    ``matrix`` over the common denominator ``den``, the lcm of the
    reduced denominators, so equal metrics give equal fields.  Each
    distinct str or int token is read once with `rational.ratio`, through
    a memo local to the construction, so ``1``, ``"1"`` and ``"2/2"``
    give one entry; any other token goes to `ratio` on its own and fails
    there as it would alone.

    Every token is read before a label is checked.  Each metric axiom
    is one pass that decides it and names its first failure in row-major
    order, as a plain triple loop would: row i is compared with column i
    at C level, and only a failing row is searched entry by entry; the
    triangle inequality is one test per unordered pair on rows packed
    into single integers (`_first_triangle_failure`).  ``d(a, b)`` reads
    one distance as a Fraction.
    """

    labels: tuple[str, ...]
    dist: InitVar[Iterable[Iterable[Number]]]
    matrix: tuple[tuple[int, ...], ...] = field(init=False)
    den: int = field(init=False)

    def __post_init__(self, dist: Iterable[Iterable[Number]]) -> None:
        # token -> index of its (num, den) in `pairs`; True hashes like 1
        # and a list is unhashable, so only str and int tokens are kept
        memo: dict = {}
        pairs: list[tuple[int, int]] = []

        def index(x) -> int:
            if type(x) is str or type(x) is int:
                i = memo.get(x)
                if i is None:
                    i = memo[x] = len(pairs)
                    pairs.append(ratio(x))
                return i
            pairs.append(ratio(x))
            return len(pairs) - 1

        rows = [list(map(index, row)) for row in dist]
        labels = tuple(str(l) for l in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise InvalidConfigurationError("duplicate labels in metric space")
        if not labels:
            raise InvalidConfigurationError("metric space needs at least one point")
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidConfigurationError("distance matrix shape does not match labels")
        den = math.lcm(*{q for _, q in pairs})
        entries = [p * (den // q) for p, q in pairs]
        m = tuple(tuple(map(entries.__getitem__, row)) for row in rows)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "den", den)
        for i, (row, col) in enumerate(zip(m, zip(*m))):
            # with a zero diagonal, a row's entries are all positive off
            # the diagonal iff its least entry is 0 and it holds one 0
            if row[i] == 0 and row == col and min(row) == 0 and row.count(0) == 1:
                continue
            if row[i] != 0:
                raise InvalidConfigurationError(f"nonzero self-distance at {labels[i]!r}")
            for j, (x, y) in enumerate(zip(row, col)):
                if x != y:
                    raise InvalidConfigurationError(
                        f"asymmetric distances between {labels[i]!r} and {labels[j]!r}"
                    )
                if i != j and x <= 0:
                    raise InvalidConfigurationError(
                        f"distinct points {labels[i]!r}, {labels[j]!r} "
                        f"at distance {Fraction(x, den)}"
                    )
        failure = _first_triangle_failure(m)
        if failure is not None:
            i, j, k = failure
            raise InvalidConfigurationError(
                "triangle inequality fails on "
                f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})"
            )

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {l: i for i, l in enumerate(self.labels)}

    def _index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}") from None

    def entry(self, a: str, b: str) -> int:
        """``den * d(a, b)``: the integer matrix entry."""
        return self.matrix[self._index_of(a)][self._index_of(b)]

    def d(self, a: str, b: str) -> Fraction:
        return Fraction(self.entry(a, b), self.den)


def _first_triangle_failure(m: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The first (i, j, k), in row-major order, that breaks the triangle
    inequality m[i][k] <= m[i][j] + m[j][k], or None, for a symmetric
    matrix of integers >= 0.

    For a symmetric m, d[i][k] <= d[i][j] + d[j][k] and
    d[j][k] <= d[j][i] + d[i][k] for every k iff every
    |m[i][k] - m[j][k]| is at most m[i][j], so each unordered pair is
    tested once, on whole rows at a time.  Row i is packed into the
    integer A_i with m[i][k] in the w-bit field k, w two bits wider than
    the largest entry M.  With c = m[i][j] in every field plus 2**(w-1)
    (``high``, the top bit of each field), field k of c + A_i - A_j is
    2**(w-1) + m[i][j] + m[i][k] - m[j][k], which lies in
    [2**(w-1) - M, 2**(w-1) + 2M], inside [0, 2**w): no borrow or carry
    crosses a field, and its top bit is set iff
    m[j][k] - m[i][k] <= m[i][j].  c - (A_i - A_j) tests the other sign.

    A failing pair i < j is (i, j) if c - (A_i - A_j) fails, else (j, i).
    The scan keeps the least such pair, stops at the first row past its
    first index, and searches k for that pair alone.
    """
    w = max(map(max, m)).bit_length() + 2
    shifts = range(0, w * len(m), w)
    ones = sum(1 << s for s in shifts)
    high = ones << (w - 1)
    packed = [sum(map(operator.lshift, row, shifts)) for row in m]
    first = None
    for i, (row, ai) in enumerate(zip(m, packed)):
        if first is not None and first[0] < i:
            break
        for j in range(i + 1, len(m)):
            diff = ai - packed[j]
            c = row[j] * ones + high
            if (c + diff) & (c - diff) & high != high:
                pair = (i, j) if (c - diff) & high != high else (j, i)
                if first is None or pair < first:
                    first = pair
    if first is not None:
        i, j = first
        return i, j, next(k for k in range(len(m)) if m[i][k] > m[i][j] + m[j][k])
    return None


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

    @functools.cached_property
    def _table(self) -> dict[str, tuple[Vec, ...]]:
        return dict(self.entries)

    def images(self, label: str) -> tuple[Vec, ...]:
        try:
            return self._table[label]
        except KeyError:
            raise ValueError(f"no image entry for label {label!r}") from None


@dataclass(frozen=True)
class PlainMode:
    name: ClassVar[str] = "plain"


@dataclass(frozen=True)
class ScaledMode:
    lam: Fraction
    name: ClassVar[str] = "scaled"

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", frac(self.lam))
        if self.lam <= 0:
            raise InvalidConfigurationError("scaled mode needs a positive lambda")


@dataclass(frozen=True)
class EfficiencyMode:
    gamma: Fraction
    name: ClassVar[str] = "efficiency"

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
        label_set, seen = set(self.space.labels), set()
        for l in self.feasible:
            if l not in label_set:
                raise InvalidConfigurationError(f"feasible point {l!r} is not in the space")
            if l in seen:
                raise InvalidConfigurationError(f"feasible point {l!r} is listed twice")
            seen.add(l)
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

    @functools.cached_property
    def scale(self) -> Fraction:
        if isinstance(self.mode, ScaledMode):
            return self.epsilon / self.mode.lam
        if isinstance(self.mode, EfficiencyMode):
            return self.mode.gamma
        return Fraction(1)

    def images(self, label: str) -> tuple[Vec, ...]:
        return self.f.images(label)

    @functools.cached_property
    def _scaled_images(self) -> tuple[int, dict[str, list[list[int]]]]:
        """(scale, {label: [z per image]}): every image times one common
        ``scale``, in integers, as the solver and the verifier read it."""
        f = self.f
        flat, scale = integerize([c for _, imgs in f.entries for y in imgs for c in y])
        it = iter(flat)
        return scale, {l: [[next(it) for _ in y] for y in imgs] for l, imgs in f.entries}

    @functools.cached_property
    def _image_rows(self) -> _ImageRows:
        """The solver's row products, built on first use."""
        return _ImageRows(self, *self._separation.halfspaces)


# ---------------------------------------------------------------------------
# the pre-order, on the halfspaces of the cone over t*H + K
# ---------------------------------------------------------------------------


class _ImageRows:
    """Row products of a problem's scaled images with ``plus_hs``, rows
    of the cone over t*H + K, and ``minus_hs``, rows of the cone over
    t*H - K: the functional's checked rows, for the solver and for the
    verifier alike.

    ``plus[label][i]`` holds the products of ``plus_hs`` at image i of
    the point; `minus` forms those of ``minus_hs`` per point on first
    use.  Products are linear in z, so those of a difference of images
    are differences of these.  ``unit`` holds ``plus_hs``'s bounds at one
    unit of the integer metric, T = p.scale * scale / den.
    """

    def __init__(self, p: EVPProblem, plus_hs: ConeHalfspaces, minus_hs: ConeHalfspaces):
        self.scale, self._ints = p._scaled_images
        self.plus_hs, self.minus_hs = plus_hs, minus_hs
        self.plus = {l: [plus_hs.products(z) for z in zs] for l, zs in self._ints.items()}
        self._minus: dict[str, list[tuple[int, ...]]] = {}
        self.unit = plus_hs.bounds(p.scale * self.scale / p.space.den)
        self._x0 = p.x0

    def pair_bounds(self, entry: int) -> tuple[int, list[int]]:
        """``plus_hs``'s bounds for a pair at the integer distance
        ``entry``.  `reaches` is unchanged when den and the bounds are
        multiplied by one positive number, so (den, entry * unit bounds)
        answers it exactly, and at entry 0 every bound is 0."""
        den, bounds = self.unit
        return den, [entry * c for c in bounds]

    def minus(self, label: str) -> list[tuple[int, ...]]:
        prods = self._minus.get(label)
        if prods is None:
            prods = [self.minus_hs.products(z) for z in self._ints[label]]
            self._minus[label] = prods
        return prods

    def phi_args(self, i0: int, label: str) -> Iterator[tuple]:
        """Per image y of ``label``, the five arguments that
        `phi_from_rows` and `phi_lower_bound` take for y - y0, with y0
        image ``i0`` of the start point."""
        plus0, minus0 = self.plus[self._x0][i0], self.minus(self._x0)[i0]
        for plus_y, minus_y in zip(self.plus[label], self.minus(label)):
            yield (
                self.plus_hs,
                tuple(map(operator.sub, plus0, plus_y)),
                self.minus_hs,
                tuple(map(operator.sub, minus_y, minus0)),
                self.scale,
            )


def dominates(p: EVPProblem, xprime: str, x: str) -> bool:
    """Is xprime below x, i.e. f(x) within f(xprime) + scale*d*H + K?

    Each image of f(x) must be reachable from some image of f(xprime);
    each pair is a sign check of stored integer row products
    (`EVPProblem._image_rows`) against the unit bounds times the integer
    distance.
    """
    rows = p._image_rows
    den, bounds = rows.pair_bounds(p.space.entry(xprime, x))
    sources = rows.plus[xprime]
    return all(
        any(reaches(den, bounds, target, src) for src in sources)
        for target in rows.plus[x]
    )


def lower_section(p: EVPProblem, x: str) -> tuple[str, ...]:
    """All feasible points below x, in `p.feasible` order; always
    contains x."""
    p.space._index_of(x)
    return tuple(l for l in p.feasible if dominates(p, l, x))


# ---------------------------------------------------------------------------
# hypothesis check
# ---------------------------------------------------------------------------


def _escaping_image(
    p: EVPProblem, x: str, scope: Sequence[str], eps: Fraction
) -> tuple[Optional[int], dict]:
    """(i, blocking): i indexes the first image y0 of x that no image y of
    a point in scope reaches, y0 - y in eps*H + K, or is None when every
    image is reached; ``blocking`` maps each image before it to the first
    (point, image y) that reaches it."""
    rows = p._image_rows
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


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EVPCertificate:
    """Solver output with enough data to re-verify every claim.

    ``chain`` walks from x0 to xbar through the pre-order: `solve` writes
    (x0,) when x0 is alone in its lower section and (x0, xbar) otherwise.
    ``xi_trace`` holds the exact potential minimum at each chain point
    and is strictly decreasing, by at least scale * step distance per
    move.  `verify_certificate` accepts a chain of any length, since a
    certificate is input.
    """

    xbar: str
    y0: Vec
    chain: tuple[str, ...]
    xi_trace: tuple[Fraction, ...]


def solve(p: EVPProblem) -> EVPCertificate:
    """Run the descent and return a certificate for its endpoint.

    One argmin step: xbar is the point of x0's lower section with the
    least potential, ties going to the first in label order, and x0
    itself when the section holds nothing else.  The module docstring
    shows that nothing else lies below it, so the section of xbar is not
    computed; `verify_certificate` checks (b) on its own route.  Four
    checks guard the scores: the [-eps, 0] bound, a start that is not its
    own argmin, a drop of at least scale * distance and a finite score at
    every chain point.

    Dominance, the hypothesis check and the scores are read off the
    halfspaces of the cones over t*H + K and t*H - K with no LP, in
    exact integer arithmetic.
    """
    rows = p._image_rows
    # x0's lower section is the hypothesis scope (outside efficiency
    # mode), the bound check's range and the argmin's range
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

    scores = {
        l: min(phi_from_rows(*args) for args in rows.phi_args(witness, l))
        for l in section
    }
    section_min = min(scores.values())
    if not section_min.is_finite or not (-p.epsilon <= section_min.value <= 0):
        raise InternalConsistencyError(
            f"potential minimum {section_min} over the start section violates "
            f"the [-eps, 0] bound"
        )

    chain = [p.x0]
    if section != (p.x0,):
        # the section comes in `p.feasible` order, so ties are broken on
        # label order by the key, not by position in the section
        best = min(section, key=lambda l: (scores[l], p.space._index[l]))
        if best == p.x0:
            raise InternalConsistencyError(
                f"{p.x0!r} is its own section argmin but the section has "
                f"{len(section)} points"
            )
        # the argmin's score is the finite section minimum
        before, after = scores[p.x0], scores[best]
        if before.is_finite and (
            before.value - after.value < p.scale * p.space.d(p.x0, best)
        ):
            raise InternalConsistencyError(
                f"descent step {p.x0!r} -> {best!r} dropped the potential "
                f"by less than scale * distance"
            )
        chain.append(best)

    values = []
    for label in chain:
        v = scores[label]
        if not v.is_finite:
            raise InternalConsistencyError("chain point scored +inf")
        values.append(v.value)
    return EVPCertificate(
        xbar=chain[-1],
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
    radius = p.epsilon / gamma
    dist = p.space.d(p.x0, xbar)
    if dist == 0:
        return p.H.vertices[0]
    for h in p.H.vertices:
        if not scaled_H_plus_K_contains(p.H, p.K, tuple(dist * c for c in h), radius):
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
    hypothesis-witness checks guard the certificate's own bookkeeping.
    ``failures`` names the failed checks; a ``c`` or ``coradiant_gap``
    of None is not a failure.
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
    """The pre-order, the hypothesis check and the trace values as the
    verifier decides them.

    Shares no answer with the solver.  ``rows`` is the verifier's own
    `_ImageRows` over the rows the solver reads too,
    `SeparationFunctional.halfspaces`: each row was checked, when the
    functional was built, to be nonnegative on every generator (h, 1)
    and (+-k, 0) of its cone (`geometry.homogenized_halfspaces`).  So a
    point where a row is negative lies outside, and the scales the rows
    allow contain the true ones.

    A "no" for "y - ysrc in t*H + K" is a Farkas certificate: a checked
    row negative at (y - ysrc, t) (`geometry.reaches`).  A point that no
    checked row excludes goes to the membership LP, so every "yes" is an
    exact LP answer.  A trace value is checked by `potential_is`.  Each
    call of `dominates` or `escapes` forms its own bounds once, and the
    Fraction t only for a membership LP.
    """

    def __init__(self, p: EVPProblem):
        self.p = p
        self.rows = _ImageRows(p, *p._separation.halfspaces)
        self._dominance: dict = {}

    def _in_sum(self, y: Vec, ysrc: Vec, prod, prod_src, bounds, t) -> bool:
        """Is y - ysrc in t*H + K?  ``bounds`` are the checked rows'
        (den, bounds) at t, and ``t`` a callable giving t for the LP."""
        if not reaches(*bounds, prod, prod_src):
            return False  # a checked row is negative at (y - ysrc, t)
        return scaled_H_plus_K_contains(self.p.H, self.p.K, vec_sub(y, ysrc), t())

    def dominates(self, xprime: str, x: str) -> bool:
        key = (xprime, x)
        ans = self._dominance.get(key)
        if ans is None:
            p, plus = self.p, self.rows.plus
            bounds = self.rows.pair_bounds(p.space.entry(x, xprime))

            def t() -> Fraction:
                return p.scale * p.space.d(x, xprime)

            sources = list(zip(p.images(xprime), plus[xprime]))
            ans = all(
                any(self._in_sum(y, ys, prod, ps, bounds, t) for ys, ps in sources)
                for y, prod in zip(p.images(x), plus[x])
            )
            self._dominance[key] = ans
        return ans

    def escapes(self, y0: Vec) -> bool:
        """Is y0, an image of x0, outside y - eps*H - K for every image y
        of every point in the hypothesis scope?  Whether a point is in
        the scope is asked only of points with a reaching image."""
        p, rows = self.p, self.rows
        prod0 = rows.plus[p.x0][p.images(p.x0).index(y0)]
        efficiency = isinstance(p.mode, EfficiencyMode)
        bounds = rows.plus_hs.bounds(p.epsilon * rows.scale)

        def eps() -> Fraction:
            return p.epsilon

        for x in p.feasible:
            if any(
                self._in_sum(y0, y, prod0, prod, bounds, eps)
                for y, prod in zip(p.images(x), rows.plus[x])
            ) and (efficiency or self.dominates(x, p.x0)):
                return False
        return True

    def potential_is(self, label: str, y0: Vec, v: Fraction) -> bool:
        """Is v = xi(label), the least phi(y - y0) over the images y of
        the point, for y0 an image of x0?

        Two facts decide it.  Every image has phi(y - y0) >= v: the
        checked rows give a lower bound (`phi_lower_bound`), and an image
        whose bound is missing or below v is scored exactly by the LP
        `evaluate`; for a true v that happens only where a dropped row
        left the bound short.  Some image reaches v: one whose bound
        equals v is confirmed by the membership LP y - y0 in v*H - K,
        which shows phi(y - y0) <= v.
        """
        p = self.p
        i0 = p.images(p.x0).index(y0)
        target = ExtendedReal.finite(v)
        reached = False
        candidates = []
        for y, args in zip(p.images(label), self.rows.phi_args(i0, label)):
            bound = phi_lower_bound(*args)
            if bound is None or bound < target:
                exact = evaluate(p._separation, vec_sub(y, y0))
                if exact < target:
                    return False
                reached = reached or exact == target
            elif bound == target:
                candidates.append(y)
        return reached or any(
            scaled_H_minus_K_contains(p.H, p.K, vec_sub(y, y0), v) for y in candidates
        )


def verify_certificate(p: EVPProblem, cert: EVPCertificate) -> VerificationReport:
    """Re-check every conclusion from scratch; never raises on failure.

    The route is independent of the solver's.  Dominance, the
    hypothesis witness and the trace values are decided by
    `_CheckedRelation`, from the halfspace rows checked against H and K
    when the functional was built, sharing no answer with the solver.
    Each "no" for dominance and the witness is a checked row; each "yes"
    is an exact membership LP.  Each trace value is bounded below by the
    checked rows and shown reached by one membership LP, with the LP
    `evaluate` only for an image whose rows bound it below the value.

    The drop check on the trace is a second line of defence: it cannot
    fail once every value is exact, the chain valid and y0 in f(x0).  Take
    a step z1 -> z2, t = scale * d(z1, z2) and r = xi(z1) <= 0, attained
    at an image of z1 that, less y0, is w + t*h + k with w + y0 an image
    of z2.  It lies in r*H - K, so w lies in (r - t)*H - K, as
    r*h' - t*h is (r - t) times a convex combination of h' and h; hence
    xi(z2) <= r - t.
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
            if not rel.potential_is(label, y0, frac(claimed)):
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
