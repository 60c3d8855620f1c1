"""Exact rational helpers shared across the package.

All geometric data is stored as `fractions.Fraction` so feasibility
questions have certified yes/no answers.  Floats are converted through
their shortest decimal representation, which matches what a user wrote
in an input file rather than the binary expansion of the float.
`integerize` is the one place Fractions are scaled to integers, for the
LP tableau, the metric check and the halfspace routes alike.
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


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def to_jsonable(q: Fraction) -> Union[int, str]:
    """JSON form that round-trips exactly through `frac`."""
    if q.denominator == 1:
        return int(q)
    return str(q)
