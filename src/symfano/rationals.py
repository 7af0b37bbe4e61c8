"""Exact rational scalars.

Every quantity in this package is an exact rational, or an element
``a + b*sqrt(d)`` of a quadratic extension of the rationals with an integer
``d`` that ``squarefree_decompose`` reduces without factoring it in full;
there are no floats and no tolerances anywhere.  The scalar type is
``fractions.Fraction``, which normalises to lowest terms with a positive
denominator; ``BACKEND`` names it.  The stability simplex
(``exact.solve_positive_combination``) pivots in plain integers and builds
rationals only for the coefficients it returns; a Moebius element
(``groups.MoebiusElement``) is a primitive integer matrix, and its action
builds each part of an image point with one reduction.  ``parse_rat`` builds
``"p/q"`` with one reduction.
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
            return Q(int(num), d)
        return Q(int(s))
    except ValueError:
        raise InputError(f"not a rational: {text!r}") from None


def rat_str(x) -> str:
    """Serialise a rational or an int as ``"p/q"``, or a bare integer when q == 1."""
    return str(x)


def reciprocal(q: Q) -> Q:
    """``1/q`` for a nonzero rational, built in one step."""
    return Q(q.denominator, q.numerator)


def rat_key(x):
    """Deterministic sort key of a rational or an int: numerator, then denominator."""
    return (x.numerator, x.denominator)


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


#: primes up to this bound are divided out; one isqrt test finishes the cofactor
_TRIAL_PRIME_BOUND = 1 << 16


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s^2 * d`` with ``s >= 1``, the sign of n kept on d.

    Primes up to 2^16 are divided out and the cofactor left by them is tested
    for a perfect square, so ``d == 1`` exactly when n is a square, and d is
    squarefree whenever that cofactor is below 2^48 (its prime factors then
    exceed 2^16, so it is 1, p, p^2 or p*q).  Above that d may keep the square
    of a large prime: finding the squarefree part is as hard as factoring.
    """
    if n == 0:
        return 1, 0
    s = 1
    d = -1 if n < 0 else 1
    n = abs(n)
    p = 2
    while p <= _TRIAL_PRIME_BOUND and p * p <= n:
        if n % p == 0:
            sq = p * p
            while n % sq == 0:
                n //= sq
                s *= p
            if n % p == 0:
                n //= p
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n
