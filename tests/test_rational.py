"""The number parser: `ratio` and `frac` agree with `Fraction`'s own route
on every input, in value and in error."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyevp.rational import frac, ratio

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
