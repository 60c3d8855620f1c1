"""Exact rational helpers shared across the package.

All geometric data is stored as `fractions.Fraction` so feasibility
questions have certified yes/no answers.  Floats are converted through
their shortest decimal representation, which matches what a user wrote
in an input file rather than the binary expansion of the float.

Integers are formed in two places.  `ratio` reads each number of a
problem file straight to a (numerator, denominator) pair, which `frac`
wraps in a Fraction.  `FiniteMetricSpace` calls it once per distinct str
or int distance token and keeps one integer matrix over the common
denominator; the metric checks and the pre-order's scales stay in those
integers.  `integerize` scales Fractions already built to integers: a
problem's images once per problem (`EVPProblem._scaled_images`), the
vectors of each `geometry` value type (`ConeGen`, `Polytope`,
`VPolyhedralUnion`) once per value, and each query point, dual witness
and LP objective as it comes.

The exact programs then run on those forms and form a Fraction only
where a value leaves them.  `lp_core` builds every LP row, with its rhs,
in integers and reads the optimum off its integer tableau; a row given
as Fractions is scaled once, when its `LinearProgram` is made.
`scalarization`'s bisection keeps its scales as integer numerators over
one denominator, and `boundedness` eliminates fraction-free with
`lp_core.eliminate`, the tableau's pivot step.

`nonnegative_on` and `combines_to`, the two sides of Farkas' lemma for
an integer cone, decide every integer certificate: the checked rows and
`evaluate`'s weights in `geometry`, and k* and b in `boundedness`.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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


def idot(a: Sequence[int], b: Sequence[int]) -> int:
    """a . b for integer vectors, stopping at the end of the shorter."""
    return sum(map(operator.mul, a, b))


def nonnegative_on(row: Sequence[int], gens: Iterable[Sequence[int]]) -> Optional[tuple]:
    """row . g per generator g when every one is >= 0, else None.  Then a
    point where the row is negative lies outside the cone they generate:
    Farkas' "no"."""
    products = tuple(idot(row, g) for g in gens)
    return None if any(p < 0 for p in products) else products


def combines_to(
    coeffs: Sequence[int], gens: Sequence[Sequence[int]], point: Sequence[int]
) -> bool:
    """Are ``coeffs`` nonnegative, one per generator, with sum c * g ==
    point?  Then the point lies in the cone they generate: Farkas' "yes"."""
    if len(coeffs) != len(gens) or any(c < 0 for c in coeffs):
        return False
    return all(idot(coeffs, [g[r] for g in gens]) == p for r, p in enumerate(point))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def to_jsonable(q: Fraction) -> Union[int, str]:
    """JSON form that round-trips exactly through `frac`."""
    if q.denominator == 1:
        return int(q)
    return str(q)
