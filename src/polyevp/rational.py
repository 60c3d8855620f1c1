"""Exact rational helpers shared across the package.

All geometric data is stored as `fractions.Fraction` so feasibility
questions have certified yes/no answers.  Floats are converted through
their shortest decimal representation, which matches what a user wrote
in an input file rather than the binary expansion of the float.

Integers are formed in two places.  `ratio` reads each number of a
problem file straight to a (numerator, denominator) pair, which
`FiniteMetricSpace` keeps as one integer matrix over a common
denominator and `frac` wraps in a Fraction.  `integerize` scales
Fractions already built to integers, for the LP tableau and the
halfspace routes.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

Number = Union[int, float, str, Fraction]
Vec = tuple[Fraction, ...]

_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


# A plain ASCII literal: optional minus, digits, then "/digits" or
# ".digits".  Everything else (a sign "+", whitespace, "_", other
# digits, exponents) goes the general route, so its value and its error
# message are `Fraction`'s and not a second parser's.
_PLAIN = re.compile(r"(-?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def ratio(x: Number) -> tuple[int, int]:
    """``(num, den)`` with ``frac(x) == Fraction(num, den)``, in lowest
    terms and ``den > 0``.

    JSON ints and plain "p/q" or decimal strings are read straight to
    integers.  Anything else, and a plain string whose zero denominator
    or digit count (over `sys.get_int_max_str_digits`) `int` refuses,
    takes `frac`'s general route, which gives every error.
    """
    if type(x) is int:
        return x, 1
    if type(x) is str and (m := _PLAIN.fullmatch(x)):
        sign, whole, over, decimals = m.groups()
        try:
            if over is not None:
                num, den = int(whole), int(over)
            elif decimals is not None:
                num, den = int(whole + decimals), 10 ** len(decimals)
            else:
                num, den = int(whole), 1
        except ValueError:  # over the digit limit
            den = 0
        if den:
            g = math.gcd(num, den)
            return (-num if sign else num) // g, den // g
    q = _fraction(x)
    return q.numerator, q.denominator


def frac(x: Number) -> Fraction:
    """Coerce ints, Fractions, floats, and 'p/q' or decimal strings.

    Anything else raises, with a reason that names x: TypeError for a
    value of another type, ValueError for a literal that is no number.
    A decimal exponent larger in magnitude than the interpreter's integer
    string limit (`sys.get_int_max_str_digits`, which already bounds the
    digits of an integer) raises ValueError naming that limit: `Fraction`
    would compute 10**exponent in full.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(*ratio(x))


def _fraction(x: Number) -> Fraction:
    """`frac` by `Fraction`'s own parser: the route for every input that
    `ratio` does not read directly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        m = _EXPONENT.search(x)
        if m:
            limit = sys.get_int_max_str_digits()  # 0 means no limit
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


def frac_vec(xs: Iterable[Number]) -> Vec:
    return tuple(frac(x) for x in xs)


def integerize(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, den) with values[i] == ints[i] / den, den the lcm of the
    denominators (1 for no values)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot of length {len(a)} with length {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def to_jsonable(q: Fraction) -> Union[int, str]:
    """JSON form that round-trips exactly through `frac`."""
    if q.denominator == 1:
        return int(q)
    return str(q)
