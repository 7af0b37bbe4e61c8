"""Exact scalar and lattice kernels: quadratic-extension arithmetic, projective
points, integer matrices with Smith normal form, and the strict-positivity
alternative for integer weight families.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, InternalError, NoRoot
from .rationals import (
    ZERO,
    Q,
    lcm_all,
    rat,
    rat_key,
    rat_str,
    reciprocal,
    squarefree_decompose,
)


def _over_one_d(x: "QuadExtScalar", y: "QuadExtScalar") -> tuple[Q, Q, int]:
    """The sqrt parts of two irrational values over the smaller |d|, as
    sqrt(d2) = r/|d1| * sqrt(d1) when d1*d2 = r^2; other pairs of d are two fields."""
    d1, d2 = x.d, y.d
    if d1 == d2:
        return x.b, y.b, d1
    p = d1 * d2
    r = math.isqrt(p) if p > 0 else 0
    if r * r != p:
        raise InputError(f"cannot mix sqrt({d1}) with sqrt({d2})")
    if abs(d1) < abs(d2):
        return x.b, y.b * Q(r, abs(d1)), d1
    return x.b * Q(r, abs(d2)), y.b, d2


def _rational(x):
    """A rational operand of mixed arithmetic: an int or Fraction as it is, else parsed."""
    return x if isinstance(x, (int, Q)) else rat(x)


class QuadExtScalar:
    """Element ``a + b*sqrt(d)`` of Q or of a real/imaginary quadratic extension.

    ``d`` is an integer that is not a square (``rationals.squarefree_decompose``
    leaves it squarefree unless it hides the square of a prime above 2^16);
    ``d is None`` marks a plain rational, and any value with ``b == 0``
    collapses to that form.  Equality and hashing read an irrational value by
    ``a``, ``b^2*d`` and the sign of ``b``, which every ``d`` it is written
    over shares, and arithmetic brings such d together (``_over_one_d``).

    The public constructor is the input boundary: it coerces both parts and
    reduces ``d``.  Arithmetic builds its results with ``_make``, which only
    collapses ``b == 0``.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, a, b=0, d: int | None = None):
        a = Q(a)
        b = Q(b)
        if b == 0:
            d = None
        elif d is None:
            raise InputError("irrational part requires an extension d")
        else:
            s, d0 = squarefree_decompose(d)
            if d0 in (0, 1):
                raise InputError(f"d={d} is a perfect square or zero")
            if s != 1:
                b = b * s
                d = d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a: Q, b: Q = ZERO, d: int | None = None) -> "QuadExtScalar":
        """``a + b*sqrt(d)`` from Fraction parts and a squarefree ``d`` (or None)."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        if b:
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "d", d)
        else:
            object.__setattr__(self, "b", ZERO)
            object.__setattr__(self, "d", None)
        return self

    def __setattr__(self, *_):
        raise AttributeError("QuadExtScalar is immutable")

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __add__(self, other):
        if not isinstance(other, QuadExtScalar):
            return QuadExtScalar._make(self.a + _rational(other), self.b, self.d)
        if other.d is None:
            return QuadExtScalar._make(self.a + other.a, self.b, self.d)
        if self.d is None:
            return QuadExtScalar._make(self.a + other.a, other.b, other.d)
        b1, b2, d = _over_one_d(self, other)
        return QuadExtScalar._make(self.a + other.a, b1 + b2, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if not isinstance(other, QuadExtScalar):
            return QuadExtScalar._make(self.a - _rational(other), self.b, self.d)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QuadExtScalar):
            r = _rational(other)
            return QuadExtScalar._make(self.a * r, self.b * r if self.b else ZERO, self.d)
        if other.d is None:
            return QuadExtScalar._make(self.a * other.a, self.b * other.a, self.d)
        if self.d is None:
            return QuadExtScalar._make(self.a * other.a, self.a * other.b, other.d)
        b1, b2, d = _over_one_d(self, other)
        return QuadExtScalar._make(self.a * other.a + b1 * b2 * d, self.a * b2 + b1 * other.a, d)

    __rmul__ = __mul__

    def norm(self) -> Q:
        """Field norm a^2 - d*b^2; zero only for the zero element."""
        if self.d is None:
            return self.a * self.a
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadExtScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.d is None:
            return QuadExtScalar._make(reciprocal(self.a))
        n = self.norm()
        return QuadExtScalar._make(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        if not isinstance(other, QuadExtScalar):
            r = _rational(other)
            return QuadExtScalar._make(self.a / r, self.b / r if self.b else ZERO, self.d)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def _radicand(self) -> Q:
        """``b^2*d`` of an irrational value."""
        b = self.b
        return Q(b.numerator * b.numerator * self.d, b.denominator * b.denominator)

    def __eq__(self, other):
        if not isinstance(other, QuadExtScalar):
            return NotImplemented
        if self.d is None or other.d is None:
            return self.d is other.d and self.a == other.a
        same_sign = (self.b > 0) == (other.b > 0)
        return same_sign and self.a == other.a and self._radicand() == other._radicand()

    def __hash__(self):
        a = self.a
        if self.d is None:
            return hash((a.numerator, a.denominator, 0, 1, None))
        r = self._radicand()
        return hash((a.numerator, a.denominator, r.numerator, r.denominator, self.b > 0))

    def sort_key(self):
        return (self.d or 0, rat_key(self.a), rat_key(self.b))

    def __repr__(self):
        return f"QuadExtScalar({self})"

    def __str__(self):
        if self.d is None:
            return rat_str(self.a)
        parts = []
        if self.a != 0:
            parts.append(rat_str(self.a))
        coeff = "" if self.b == 1 else ("-" if self.b == -1 else rat_str(self.b) + "*")
        term = f"{coeff}sqrt({self.d})"
        if parts and not term.startswith("-"):
            return f"{parts[0]}+{term}"
        return "".join(parts) + term


QE_ZERO = QuadExtScalar(0)
QE_ONE = QuadExtScalar(1)


def _scaled_pair(x: QuadExtScalar, y: QuadExtScalar) -> tuple[QuadExtScalar, QuadExtScalar]:
    """``(x/y, QE_ONE)``, or ``(QE_ONE, QE_ZERO)`` when y is zero, for a nonzero pair."""
    if y.d is not None:
        return x * y.inverse(), QE_ONE
    if not y.a:
        return QE_ONE, QE_ZERO
    if y.a == 1:
        return x, QE_ONE
    return x * reciprocal(y.a), QE_ONE


class ProjPoint:
    """Point of the projective line over Q or a quadratic extension.

    Stored in canonical form: the last nonzero coordinate is scaled to 1, so
    ``y`` is ``QE_ONE`` or ``QE_ZERO`` and componentwise equality is
    projective equality.  The public constructor validates its coordinates;
    ``_normalized`` scales a pair known to be nonzero and in one field.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if not isinstance(x, QuadExtScalar):
            x = QuadExtScalar(rat(x))
        if not isinstance(y, QuadExtScalar):
            y = QuadExtScalar(rat(y))
        if x.is_zero() and y.is_zero():
            raise InputError("(0, 0) is not a projective point")
        x, y = _scaled_pair(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _make(cls, x: QuadExtScalar, y: QuadExtScalar) -> "ProjPoint":
        """The point with canonical coordinates ``(x, y)``, taken as they are."""
        self = object.__new__(cls)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        return self

    @classmethod
    def _normalized(cls, x: QuadExtScalar, y: QuadExtScalar) -> "ProjPoint":
        """The point ``[x : y]`` of a nonzero pair over one field."""
        return cls._make(*_scaled_pair(x, y))

    def __setattr__(self, *_):
        raise AttributeError("ProjPoint is immutable")

    @classmethod
    def from_affine(cls, t) -> "ProjPoint":
        return cls._make(t if isinstance(t, QuadExtScalar) else QuadExtScalar(rat(t)), QE_ONE)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls._make(QE_ONE, QE_ZERO)

    @property
    def is_infinity(self) -> bool:
        return not self.y.a

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.x == other.x and self.is_infinity == other.is_infinity

    def __hash__(self):
        return hash((self.x, self.is_infinity))

    def sort_key(self):
        return (1 if self.is_infinity else 0, self.x.sort_key())

    def __repr__(self):
        return f"ProjPoint({self})"

    def __str__(self):
        return "inf" if self.is_infinity else str(self.x)


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        for row in entries:
            for x in row:
                if type(x) is not int:
                    raise InputError(f"matrix entry {x!r} is not an int")
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(row) != cols for row in entries):
            raise InputError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """The matrix of a tuple of int tuples, each of length ``cols``, kept as is."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("dimension mismatch in product")
        ot = other.entries
        return IntMatrix(
            [
                [sum(a * ot[k][j] for k, a in enumerate(row)) for j in range(other.cols)]
                for row in self.entries
            ]
        )

    def apply(self, vector):
        """Matrix times integer column vector."""
        if len(vector) != self.cols:
            raise InputError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * v for a, v in zip(row, vector)) for row in self.entries)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("dimension mismatch in difference")
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"


def _primitive(vector: tuple[int, ...]) -> tuple[int, ...]:
    """Divide an int tuple by the gcd of its entries; one with gcd 0 or 1 comes back as is."""
    g = math.gcd(*vector)
    if g <= 1:
        return vector
    return tuple(v // g for v in vector)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal D with U*A*V = D and d_i | d_{i+1} >= 0."""
    m = [list(row) for row in a.entries]
    rows, cols = a.rows, a.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(p, q, r00, r01, r10, r11):
        for mat in (m, u):
            rp = mat[p]
            rq = mat[q]
            for j in range(len(rp)):
                rp[j], rq[j] = r00 * rp[j] + r01 * rq[j], r10 * rp[j] + r11 * rq[j]

    def col_op(p, q, c00, c01, c10, c11):
        for mat in (m, v):
            for row in mat:
                row[p], row[q] = c00 * row[p] + c10 * row[q], c01 * row[p] + c11 * row[q]

    def swap_rows(p, q):
        m[p], m[q] = m[q], m[p]
        u[p], u[q] = u[q], u[p]

    def swap_cols(p, q):
        for mat in (m, v):
            for row in mat:
                row[p], row[q] = row[q], row[p]

    t = 0
    while t < min(rows, cols):
        # bring a smallest-magnitude nonzero entry of the trailing block to (t, t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        # plain elimination while the pivot divides; a gcd step otherwise
        # (each gcd step strictly shrinks the pivot, so this terminates)
        while True:
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    if m[i][t] % m[t][t] == 0:
                        row_op(t, i, 1, 0, -(m[i][t] // m[t][t]), 1)
                    else:
                        g, p, q = _xgcd(m[t][t], m[i][t])
                        row_op(t, i, p, q, -m[i][t] // g, m[t][t] // g)
            if any(m[t][j] != 0 for j in range(t + 1, cols)):
                for j in range(t + 1, cols):
                    if m[t][j] != 0:
                        if m[t][j] % m[t][t] == 0:
                            col_op(t, j, 1, -(m[t][j] // m[t][t]), 0, 1)
                        else:
                            g, p, q = _xgcd(m[t][t], m[t][j])
                            col_op(t, j, p, -m[t][j] // g, q, m[t][t] // g)
                if any(m[i][t] != 0 for i in range(t + 1, rows)):
                    continue
            break

        # the pivot must divide the whole trailing block for the divisor chain
        d = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, 1, 1, 0, 1)
            continue

        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return IntMatrix(u), IntMatrix(m), IntMatrix(v)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) > 0 together with p, q such that p*a + q*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_kernel(a: IntMatrix) -> list[tuple[int, ...]]:
    """Saturated basis of the integer kernel {v : A v = 0}."""
    _, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i] != 0)
    basis = [v.col(j) for j in range(rank, a.cols)]
    return [tuple(int(x) for x in b) for b in basis]


def quadratic_roots(a, b, c) -> tuple[QuadExtScalar, ...]:
    """Distinct roots of a*t^2 + b*t + c over Q or a quadratic extension.

    Degenerate a == 0 yields the single linear root; a double root is returned
    once.  The coefficients are scaled to integers A, B, C, and the roots are
    (-B +- s*sqrt(d)) / 2A with ``B^2 - 4AC = s^2 * d`` by
    ``squarefree_decompose``.  Irrational pairs are ordered positive-sqrt part
    first, rational pairs larger root first.
    """
    a, b, c = rat(a), rat(b), rat(c)
    if a == 0:
        if b == 0:
            if c == 0:
                raise InputError("zero polynomial has every root")
            raise NoRoot("constant nonzero polynomial")
        return (QuadExtScalar._make(-c / b),)
    scale = lcm_all((a.denominator, b.denominator, c.denominator))
    a, b, c = (x.numerator * (scale // x.denominator) for x in (a, b, c))
    disc = b * b - 4 * a * c
    base = Q(-b, 2 * a)
    if disc == 0:
        return (QuadExtScalar._make(base),)
    s, d = squarefree_decompose(disc)
    if d == 1:
        r1 = QuadExtScalar._make(Q(s - b, 2 * a))
        r2 = QuadExtScalar._make(Q(-s - b, 2 * a))
        return (r1, r2) if r1.a > r2.a else (r2, r1)
    half = Q(s, 2 * abs(a))
    return (QuadExtScalar._make(base, half, d), QuadExtScalar._make(base, -half, d))


# ---------------------------------------------------------------------------
# Strict-positivity alternative for integer weight families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositiveCombination:
    """Strictly positive rational lambda with sum(lambda_i * w_i) = 0."""

    coefficients: tuple

    def __iter__(self):
        return iter(self.coefficients)


@dataclass(frozen=True)
class SemipositiveWitness:
    """Integer v with <v, w_i> >= 0 for every column and > 0 for at least one."""

    vector: tuple[int, ...]


def solve_positive_combination(w: IntMatrix) -> PositiveCombination | SemipositiveWitness:
    """Decide the strict alternative for the columns w_1..w_n of ``w``.

    Exactly one of the two outcomes exists: either a strictly positive rational
    vector lambda (normalised to lambda_i >= 1) with ``w @ lambda = 0``, or an
    integer witness pairing nonnegatively with every column and positively
    with at least one.  Decided by phase-one simplex on ``{w x = -w 1, x >= 0}``
    with the witness read off the Farkas dual.  The simplex pivots in plain
    integers, whatever rational backend is live; a rational is built only for
    the returned coefficients.  Either outcome is re-checked in integers, and
    a failed check raises ``InternalError``.
    """
    n = w.cols
    if n < 1:
        raise InputError("need at least one column")
    rows = w.entries
    feasible, nums, den = _phase_one(rows, [-sum(row) for row in rows])
    if feasible:
        lam = [den + x for x in nums]  # lambda = 1 + x = lam / den
        if min(nums) < 0 or any(sum(c * l for c, l in zip(row, lam)) for row in rows):
            raise InternalError(f"phase one returned {nums}/{den}, not a point of w x = -w 1, x >= 0")
        return PositiveCombination(tuple(Q(l, den) for l in lam))
    v = _primitive(tuple(-x for x in nums))
    pairings = [sum(a * b for a, b in zip(v, col)) for col in zip(*rows)]
    if min(pairings) < 0 or max(pairings) <= 0:
        raise InternalError(f"phase one returned {v}, which pairs with the columns as {pairings}")
    return SemipositiveWitness(v)


def _phase_one(a_rows, rhs):
    """Feasibility of {A x = b, x >= 0} for integer A, b by simplex with Bland's rule.

    Fraction-free (Bareiss) pivoting, as in ``IntMatrix.det``: the tableau T
    and reduced-cost row z hold integers over one common denominator ``den``.
    A pivot on (l, e) keeps row l and maps every other row x of T and z to
    (x*piv - x[e]*T[l]) // den, then sets den = piv; each division is exact,
    and den > 0 because the ratio test only picks piv > 0.

    Returns (True, X, den) with x = X / den feasible, else (False, Y, den)
    with y = Y / den satisfying y^T A <= 0 and y^T b > 0 (a Farkas witness
    for the original row orientation).
    """
    m = len(a_rows)
    n = len(a_rows[0])
    ncols = n + m
    signs = [-1 if b < 0 else 1 for b in rhs]
    tab = [
        [s * x for x in row] + [int(j == i) for j in range(m)] + [s * b]
        for i, (row, b, s) in enumerate(zip(a_rows, rhs, signs))
    ]
    basis = list(range(n, ncols))
    # reduced-cost row for minimising the artificial sum
    z = [int(n <= j < ncols) - sum(col) for j, col in enumerate(zip(*tab))]
    den = 1

    while (enter := next((j for j in range(ncols) if z[j] < 0), None)) is not None:
        leave = None
        for i, row in enumerate(tab):
            if row[enter] <= 0:
                continue
            if leave is not None:
                # ratio row[-1] / row[enter] against the best one, cross-multiplied
                a, b = row[-1] * tab[leave][enter], tab[leave][-1] * row[enter]
                if a > b or (a == b and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:  # phase one is bounded below by zero
            raise InternalError("unbounded phase-one objective")
        prow = tab[leave]
        piv = prow[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                tab[i] = [(x * piv - f * p) // den for x, p in zip(row, prow)]
        f = z[enter]
        z = [(x * piv - f * p) // den for x, p in zip(z, prow)]
        den = piv
        basis[leave] = enter

    if z[ncols] == 0:
        x = [0] * n
        for row, bj in zip(tab, basis):
            if bj < n:
                x[bj] = row[-1]
        return True, x, den
    # dual multipliers from the artificial reduced costs: y_i = 1 - zbar_{art_i}
    return False, [s * (den - zj) for s, zj in zip(signs, z[n:ncols])], den
