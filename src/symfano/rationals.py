"""Exact rational scalars.

Every quantity in this package is an exact rational (or lives in a single
quadratic extension of the rationals); there are no floats and no tolerances
anywhere.  The scalar type is ``fractions.Fraction``, which normalises to
lowest terms with a positive denominator; ``BACKEND`` names it.  The stability
simplex (``exact.solve_positive_combination``) pivots in plain integers and
builds rationals only for the coefficients it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError

BACKEND = "fractions"

#: the scalar constructor; ``rat`` below is the preferred entry point
Q = Fraction

ZERO = Q(0)
ONE = Q(1)
TWO = Q(2)


def rat(p, q=None):
    """Exact rational from ints, strings like ``"-3/4"``, or another rational."""
    if q is not None:
        return Q(p) / Q(q)
    if isinstance(p, str):
        return parse_rat(p)
    return Q(p)


def parse_rat(text) -> Q:
    """Parse ``"p/q"`` or a bare integer (string or int) into a rational."""
    if isinstance(text, bool):
        raise InputError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Q(text)
    if not isinstance(text, str):
        raise InputError(f"not a rational: {text!r}")
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            d = int(den)
            if d == 0:
                raise InputError(f"zero denominator in {text!r}")
            return Q(int(num)) / Q(d)
        return Q(int(s))
    except ValueError:
        raise InputError(f"not a rational: {text!r}") from None


def rat_str(x) -> str:
    """Serialise a rational or an int as ``"p/q"``, or a bare integer when q == 1."""
    return str(x)


def numer(x) -> int:
    return int(Q(x).numerator)


def denom(x) -> int:
    return int(Q(x).denominator)


def rat_key(x):
    """Deterministic sort key: numerator, then denominator."""
    q = Q(x)
    return (int(q.numerator), int(q.denominator))


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s^2 * d`` with ``s >= 1`` and ``d`` squarefree (sign kept on d)."""
    if n == 0:
        return 1, 0
    s = 1
    d = -1 if n < 0 else 1
    n = abs(n)
    p = 2
    while p * p <= n:
        sq = p * p
        while n % sq == 0:
            n //= sq
            s *= p
        if n % p == 0:
            n //= p
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def rational_sqrt_parts(q) -> tuple[Q, int]:
    """Write a rational ``q = s^2 * d`` with rational ``s > 0`` and squarefree int ``d``.

    ``d == 1`` means q is a perfect rational square; ``q == 0`` gives (0, 1).
    """
    q = Q(q)
    if q == 0:
        return ZERO, 1
    num = int(q.numerator)
    den = int(q.denominator)
    s_int, d = squarefree_decompose(num * den)
    return Q(s_int) / Q(den), d
