"""Exact rational scalars.

Every quantity in this package is an exact integer or rational; there are no
floats and no tolerances anywhere.  The scalar type is ``fractions.Fraction``,
which normalises to lowest terms with a positive denominator; ``BACKEND``
names it.  The hot layers avoid it: the stability simplex
(``exact._decide``) pivots in plain integers and keeps
its coefficients as integer numerators over one denominator, and the
projective line (``groups.MoebiusElement``, ``exact.ProjPoint``) is integer
matrices, pairs and binary quadratic forms.  ``ratio_key`` and ``ratio_str``
read an integer numerator and denominator as a rational with one gcd;
``rational_pair`` is the one integer form of a rational point of the line,
shared by the schema check and the line itself; ``squarefree_decompose``
reduces the radicand ``d`` that a quadratic point prints with, without
factoring it in full.

``parse_ratio`` is the one parser of the text form: it reads ``"p/q"`` or a
bare integer, each part ASCII digits after an optional sign, into an int
numerator and a nonzero int denominator, and the schema check keeps what it
parsed as those pairs.  A ``Fraction`` is built only for a value that the
package reports (``parse_rat`` and ``rat`` build one, as do the coefficients
of a marked pair and the thresholds), so ``validate`` loads no
``fractions``.  ``rat`` accepts ints, rationals and strings only: a float, a
bool or a zero denominator is an ``InputError``.

Importing this module loads no ``fractions`` (nor the ``decimal`` and
``numbers`` that it imports): ``Q``, ``ZERO``, ``ONE`` and ``TWO`` are bound
the first time one of them is read (PEP 562) or a rational is built, so a
command that computes in integers never loads it.
"""

from __future__ import annotations

import math

from .errors import InputError

BACKEND = "fractions"


def __getattr__(name):
    """``Q``, the scalar constructor (``rat`` below is the preferred entry
    point), and the constants ``ZERO``, ``ONE`` and ``TWO``: reading one
    imports ``fractions`` and binds all four, and ``_Q`` with them."""
    if name not in ("Q", "ZERO", "ONE", "TWO"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global Q, ZERO, ONE, TWO, _Q
    from fractions import Fraction as Q

    _Q = Q
    ZERO, ONE, TWO = Q(0), Q(1), Q(2)
    return globals()[name]


def _Q(*args):
    """``Q(*args)``; the first call binds ``Q``, and this name to it."""
    return __getattr__("Q")(*args)


def rat(p, q=None):
    """Exact rational p, or p/q, from ints, strings like ``"-3/4"`` or rationals.

    Anything else, a float or a bool among them, and a zero q raise InputError.
    """
    x = _rational(p)
    if q is None:
        return x
    y = _rational(q)
    if not y:
        raise InputError(f"zero denominator in rat({p!r}, {q!r})")
    return x / y


def _rational(x) -> Q:
    """``parse_rat`` of an int or a string, or the rational x as a ``Q``."""
    if isinstance(x, (int, str)):
        return parse_rat(x)
    from numbers import Rational

    if isinstance(x, Rational):
        return _Q(x)
    raise InputError(f"not a rational: {x!r}")


def parse_rat(text) -> Q:
    """Parse ``"p/q"`` or a bare integer (string or int) into a rational."""
    return _Q(*parse_ratio(text))


def parse_ratio(text) -> tuple[int, int]:
    """Parse ``"p/q"`` or a bare integer (string or int) into ints (p, q),
    q nonzero and neither reduced nor made positive.

    A string is read only in that text form: each part is ASCII digits
    after an optional sign, so ``"1/-2"`` and ``"+3"`` are rationals, while
    whitespace, ``_`` and other decimal digits, which ``int`` would accept,
    are not.
    """
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        try:
            d = _int(den) if slash else 1
            if d:
                return _int(num), d
        except ValueError:
            raise InputError(f"not a rational: {text!r}") from None
        raise InputError(f"zero denominator in {text!r}")
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 1
    raise InputError(f"not a rational: {text!r}")


def _int(part: str) -> int:
    """``int(part)`` when ``part`` is ASCII digits after an optional sign;
    else ValueError, which ``int`` also raises for too many digits."""
    digits = part[1:] if part[:1] in ("+", "-") else part
    if digits.isascii() and digits.isdigit():
        return int(part)
    raise ValueError(part)


def rat_str(x) -> str:
    """Serialise a rational or an int as ``"p/q"``, or a bare integer when q == 1."""
    return str(x)


def ratio_key(n: int, d: int) -> tuple[int, int]:
    """Sort key of the rational n/d for ints with d > 0: its numerator, then
    its denominator, reduced with one gcd."""
    g = math.gcd(n, d)
    return (n // g, d // g)


def ratio_str(n: int, d: int) -> str:
    """``rat_str`` of n/d for ints with d > 0, reduced with one gcd."""
    n, d = ratio_key(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


def rational_pair(x: int, y: int) -> tuple[int, int]:
    """The primitive pair of (x : y) != (0 : 0) with y > 0, or (1, 0): the
    ``coords`` of a rational ``exact.ProjPoint``."""
    if not y:
        return (1, 0)
    g = math.gcd(x, y)
    if y < 0:
        g = -g
    return (x, y) if g == 1 else (x // g, y // g)


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
