"""The number parser: `ratio` and `frac` agree with `Fraction`'s own route
on every input, in value and in error.  The two Farkas checks:
`combines_to` and `nonnegative_on` accept the package's own certificates
and refuse each one-entry corruption of them."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyevp import geometry
from polyevp.boundedness import find_kstar
from polyevp.geometry import homogenized_generators, homogenized_halfspaces
from polyevp.rational import (
    combines_to,
    frac,
    idot,
    integerize,
    nonnegative_on,
    ratio,
    vec_sub,
)
from polyevp.scalarization import SeparationFunctional, evaluate

from conftest import (
    all_vertices,
    dot,
    rand_cone_polytope,
    rand_union,
    rand_vector,
    reference_lower_point_weights,
)

_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


def reference_frac(x):
    """Every input through `Fraction` itself, with the package's checks
    and error messages: the parser as it was before the integer fast path."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        m = _EXPONENT.search(x)
        if m:
            limit = sys.get_int_max_str_digits()
            if limit and abs(int(m.group(1))) > limit:
                raise ValueError(f"exponent of {x.strip()!r} exceeds {limit} in magnitude")
        text = x.strip()
    elif isinstance(x, float):
        text = repr(x)
    else:
        raise TypeError(f"{x!r} is not a number")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{x!r} is not a number") from None


def outcome(parse, x):
    """The value of parse(x) as a Fraction, or its exception's type and text."""
    try:
        value = parse(x)
    except Exception as e:
        return type(e), str(e)
    return Fraction(*value) if isinstance(value, tuple) else value


def assert_same_as_reference(x):
    expected = outcome(reference_frac, x)
    assert outcome(frac, x) == expected
    assert outcome(ratio, x) == expected
    if isinstance(expected, Fraction):
        assert ratio(x) == (expected.numerator, expected.denominator)
        assert type(frac(x)) is Fraction


_DIGITS = (sys.get_int_max_str_digits() or 4300) + 1

CORPUS = [
    "-0/5", "+7/3", " 7/3 ", "7 /3", "1_0/3", "٣/4", "3/0", "0/0", "2/4",
    "0.25", "1e-3", "1e99999999", "2E+3", True, False, None,
    "1" * _DIGITS + "/3", "3/" + "1" * _DIGITS, "1" * _DIGITS + ".5",
    "0." + "1" * _DIGITS, "-" + "1" * (_DIGITS - 1),
    0, -5, 2**100, 1.5, 0.1, -0.0, Fraction(-6, 4), "", "-", "/", "1/", "/2",
    ".5", "-.5", "1.", "-1.50", "007", "-007/014", "1/-2", "--1", "0x10",
    "1.5/2", "inf", "nan", "12/8\n", [], "1/2/3",
]


@pytest.mark.parametrize("x", CORPUS, ids=repr)
def test_corpus_matches_fraction_route(x):
    assert_same_as_reference(x)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789/+-_.e ", max_size=12))
def test_literals_match_fraction_route(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize(
    "op, message",
    [(dot, "dot of length 2 with length 3"), (vec_sub, "vector lengths differ: 2 vs 3")],
    ids=["dot", "vec_sub"],
)
def test_vectors_of_different_lengths_raise(op, message):
    with pytest.raises(ValueError) as caught:
        op((1, 2), (1, 2, 3))
    assert str(caught.value) == message


def _draws(seed: int, count: int):
    """(rng, K, H) for ``count`` seeded `rand_cone_polytope` draws in
    dimensions 1 to 3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, n + 2), rng.randint(1, 3))
        yield rng, K, H


def assert_every_move_refused(coeffs, gens, point):
    """`combines_to` accepts the certificate and refuses it after any one
    coefficient moves by +1 or -1."""
    assert combines_to(coeffs, gens, point)
    for i in range(len(coeffs)):
        for step in (1, -1):
            moved = list(coeffs)
            moved[i] += step
            assert not combines_to(moved, gens, point), (coeffs, i, step)


def test_combines_to_checks_evaluates_own_weights(monkeypatch):
    # the weights `evaluate` reads off its optimal branch LP, as
    # `geometry.weights_certify_scaled_H_minus_K` hands them over
    asked = []

    def recorded(coeffs, gens, point):
        asked.append((coeffs, gens, point))
        return combines_to(coeffs, gens, point)

    monkeypatch.setattr(geometry, "combines_to", recorded)
    for rng, K, H in _draws(20281, 60):
        evaluate(SeparationFunctional(H, K), rand_vector(rng, K.dim))
    assert len(asked) > 20
    for certificate in asked:
        assert_every_move_refused(*certificate)


def test_combines_to_checks_the_weights_of_b():
    # the weights mu_j + lam with v - b = sum_j (mu_j + lam) g_j, from the
    # Fraction Gauss-Jordan reference, brought to integers
    found = 0
    for rng, K, _ in _draws(20282, 80):
        M = rand_union(rng, K, force_quasi=True)
        reference = reference_lower_point_weights(M, K)
        if reference is None:
            continue
        found += 1
        b, weights = reference
        gens, dens = zip(*K.integer_generators)
        for v, ws in zip(all_vertices(M), weights):
            ints, _ = integerize(
                [w / d for w, d in zip(ws, dens)] + [c - e for c, e in zip(v, b)]
            )
            assert_every_move_refused(ints[: len(gens)], gens, ints[len(gens):])
    assert found > 10


def assert_lowering_refused(row, gens):
    """`nonnegative_on` accepts the row, and for every entry it refuses
    the row once that entry is lowered by the least amount that makes
    some generator's product negative: one step less it still accepts."""
    assert nonnegative_on(row, gens)
    for i in range(len(row)):
        # lowering entry i by s takes s * g[i] off each product
        steps = [idot(row, g) // g[i] + 1 for g in gens if g[i] > 0]
        if not steps:
            continue
        lowered = list(row)
        lowered[i] -= min(steps)
        assert not nonnegative_on(lowered, gens), (row, i)
        lowered[i] += 1
        assert nonnegative_on(lowered, gens), (row, i)


def test_nonnegative_on_checks_every_checked_row():
    rows = 0
    for _, K, H in _draws(20283, 40):
        for sign in (1, -1):
            gens = homogenized_generators(H, K, sign)
            for row in homogenized_halfspaces(H, K, sign).rows:
                rows += 1
                assert_lowering_refused(row, gens)
    assert rows > 100


def test_nonnegative_on_checks_every_kstar():
    # k* = ks / den is the row (ks, -den) on (h, 1), (g, 0) and (r, 0)
    found = 0
    for rng, K, H in _draws(20284, 80):
        M = rand_union(rng, K)
        kstar = find_kstar(M, K, H)
        if kstar is None:
            continue
        found += 1
        ks, den = integerize(kstar)
        rays = tuple(r + (0,) for r, _ in M.integer_rays)
        assert_lowering_refused(ks + [-den], homogenized_generators(H, K, 1) + rays)
    assert found > 10


@pytest.mark.parametrize(
    "coeffs, gens, point, holds",
    [
        ([], [], [0, 0], True),
        # no generator reaches a nonzero point
        ([], [], [1, 0], False),
        ([2, 1], [[1, 0], [0, 1]], [2, 1], True),
        # one coefficient short, one too many
        ([2], [[1, 0], [0, 1]], [2, 0], False),
        ([2, 1, 0], [[1, 0], [0, 1]], [2, 1], False),
        # a negative coefficient
        ([2, -1], [[1, 0], [0, 1]], [2, -1], False),
    ],
)
def test_combines_to_needs_one_nonnegative_coefficient_per_generator(
    coeffs, gens, point, holds
):
    assert combines_to(coeffs, gens, point) == holds
