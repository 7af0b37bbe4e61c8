"""Exact kernels on integers: points of the projective line over Q or a
quadratic field, integer matrices with Smith normal form, and the
strict-positivity alternative for integer weight families.

Every value of the package is a ``Record``: immutable after construction,
compared and hashed by its fields (a ``polyhedral.Cone`` by the set it is),
and copied and pickled through a constructor.  Everything here is a pure
function on such values.  The one mutable kind is the report a command
builds, ``cli.Report``.
"""

from __future__ import annotations

import math
from operator import attrgetter, mul

from .errors import InputError, InternalError
from .rationals import rat, rational_pair, ratio_key, ratio_str, squarefree_decompose


class Record:
    """Immutable value compared, hashed and copied by the attributes in ``_fields``.

    The one base of the package's values.  A subclass names its fields in
    ``_fields``, and in ``__slots__`` too unless it keeps cached properties;
    ``__slots__`` may hold more, which then play no part in equality.
    ``Record(*values, **named)`` sets each field once, from the positional
    arguments in ``_fields`` order and then by name, and raises
    ``TypeError`` on a field missing, unknown or given twice, or on more
    positional arguments than fields; there are no defaults.  A subclass
    that checks or normalises its input keeps its own ``__init__``, whose
    positional parameters are the fields in order, and stores them through
    ``super().__init__``.  ``ProjPoint``, ``PositiveCombination`` and
    ``MoebiusElement`` break that rule: their constructors take other input,
    so each overrides ``__reduce__`` to rebuild through its trusted
    constructor (``_make``, ``MoebiusElement._primitive``) from the stored
    fields.  Records of one class are equal when their fields are, and a
    one-field record compares and hashes as its field; a record with a dict
    field is not hashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # not a descriptor: called as ``self._get(self)``
        cls._get = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values = self._bind(values, named)
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """All fields in order: the leading ones from ``values``, the rest from ``named``."""
        fields = cls._fields
        rest = fields[len(values):]
        if len(values) > len(fields) or named.keys() != set(rest):
            raise TypeError(f"{cls.__name__} takes each of the fields {fields} once, not "
                            f"{len(values)} by position and {sorted(named)} by name")
        return (*values, *[named[field] for field in rest])

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._get(self))

    def __reduce__(self):
        # copy and pickle rebuild through ``__init__`` from the fields in
        # order; slots cannot be set afterwards
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class ProjPoint(Record):
    """Point of the projective line over Q or a quadratic field, in integers.

    ``coords`` alone decides equality and hashing:

    * a rational point is ``(x, y)``, primitive with ``y > 0``, or ``(1, 0)``
      for infinity;
    * a quadratic point is ``(A, B, C, s)``, the root ``(-B + s*sqrt(D))/2A``
      of the primitive irreducible form ``A x^2 + B xy + C y^2`` with
      ``A > 0``, ``s`` = 1 or -1 and ``D = B^2 - 4AC`` (``sqrt(D)`` is
      ``i*sqrt(-D)`` when D < 0).

    ``d`` is the radicand the point prints with, as ``a + b*sqrt(d)``: None
    for a rational point, else a non-square integer with ``D/d`` the square
    of a rational.  A point of an orbit keeps the ``d`` of the fixed point it
    came from, so an orbit prints over one ``d`` even when that ``d`` keeps
    the square of a prime that ``squarefree_decompose`` cannot find.  The
    public constructors validate and reduce their input; ``_make`` takes
    canonical integers as they are.
    """

    __slots__ = ("coords", "d")
    _fields = ("coords",)

    def __init__(self, x, y):
        x, y = rat(x), rat(y)
        if not x and not y:
            raise InputError("(0, 0) is not a projective point")
        self._set(rational_pair(x.numerator * y.denominator, y.numerator * x.denominator), None)

    def _set(self, coords: tuple[int, ...], d: int | None) -> None:
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, coords: tuple[int, ...], d: int | None) -> "ProjPoint":
        """The point with canonical ``coords`` and radicand ``d``, taken as they are."""
        self = object.__new__(cls)
        self._set(coords, d)
        return self

    def __reduce__(self):
        return ProjPoint._make, (self.coords, self.d)

    @classmethod
    def from_affine(cls, a, b=0, d: int | None = None) -> "ProjPoint":
        """The point ``a + b*sqrt(d)`` for rationals a, b and an integer d
        that is not a square; ``d`` is reduced by ``squarefree_decompose``
        and is needed only when b != 0."""
        a, b = rat(a), rat(b)
        if not b:
            return cls._make((a.numerator, a.denominator), None)
        if d is None:
            raise InputError("irrational part requires an extension d")
        k, d0 = squarefree_decompose(d)
        if d0 in (0, 1):
            raise InputError(f"d={d} is a perfect square or zero")
        # the root (2a + s*sqrt(D))/2 of t^2 - 2a t + a^2 - b^2 d, s the sign
        # of b; scaled by the lcm of its denominators, the form is primitive
        middle, last = -2 * a, a * a - b * b * d
        scale = math.lcm(middle.denominator, last.denominator)
        coords = (scale, middle.numerator * (scale // middle.denominator),
                  last.numerator * (scale // last.denominator), 1 if b > 0 else -1)
        return cls._make(coords, d0)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls._make((1, 0), None)

    def _parts(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """``ratio_key`` of a and b of a quadratic point ``a + b*sqrt(d)``: with
        K = sqrt(D*d), an integer because D/d is a rational square,
        a = -B/2A and b = s*K/(2A*|d|)."""
        A, B, C, s = self.coords
        d = self.d
        K = math.isqrt((B * B - 4 * A * C) * d)
        return ratio_key(-B, 2 * A), ratio_key(s * K, 2 * A * abs(d))

    def sort_key(self):
        """``(0, (0, a, 0))`` for a rational a, ``(1, (0, 1, 0))`` for infinity
        and ``(0, (d, a, b))`` for ``a + b*sqrt(d)``, each rational as
        (numerator, denominator)."""
        if len(self.coords) == 2:
            x, y = self.coords
            return (0, (0, (x, y), (0, 1))) if y else (1, (0, (1, 1), (0, 1)))
        return (0, (self.d, *self._parts()))

    def __repr__(self):
        return f"ProjPoint({self})"

    def __str__(self):
        if len(self.coords) == 2:
            x, y = self.coords
            return ratio_str(x, y) if y else "inf"
        a, b = self._parts()
        coeff = "" if b == (1, 1) else ("-" if b == (-1, 1) else ratio_str(*b) + "*")
        term = f"{coeff}sqrt({self.d})"
        if not a[0]:
            return term
        return ratio_str(*a) + ("" if term.startswith("-") else "+") + term


class IntMatrix(Record):
    """Immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "entries")
    _fields = ("entries",)

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
        super().__init__(entries)

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """The matrix of a tuple of int tuples, each of length ``cols``, kept as
        is; ``cols`` is 0 when there are no rows, as the public constructor gives."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._make(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("dimension mismatch in product")
        ot = other.entries
        return IntMatrix._make(
            tuple(
                tuple(sum(a * ot[k][j] for k, a in enumerate(row)) for j in range(other.cols))
                for row in self.entries
            ),
            other.cols if self.rows else 0,
        )

    def apply(self, vector):
        """Matrix times integer column vector."""
        if len(vector) != self.cols:
            raise InputError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * v for a, v in zip(row, vector)) for row in self.entries)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("dimension mismatch in difference")
        rows = zip(self.entries, other.entries)
        return IntMatrix._make(tuple(tuple(a - b for a, b in zip(*r)) for r in rows), self.cols)

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

    shapes = ((u, rows), (m, cols if rows else 0), (v, cols))
    return tuple(IntMatrix._make(tuple(map(tuple, x)), n) for x, n in shapes)


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
    return [v.col(j) for j in range(rank, a.cols)]


# ---------------------------------------------------------------------------
# Strict-positivity alternative for integer weight families
# ---------------------------------------------------------------------------


class PositiveCombination(Record):
    """Strictly positive rational lambda with sum(lambda_i * w_i) = 0.

    Held as integer ``numerators`` over one ``denominator`` > 0 with no
    common factor; the public constructor takes the rationals lambda_i.
    """

    __slots__ = _fields = ("numerators", "denominator")

    def __init__(self, coefficients):
        lam = [rat(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in lam))
        self._set(tuple(c.numerator * (den // c.denominator) for c in lam), den)

    def _set(self, numerators: tuple[int, ...], denominator: int) -> None:
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _make(cls, numerators: list[int], denominator: int) -> "PositiveCombination":
        """lambda_i = numerators[i] / denominator for ints with denominator > 0."""
        self = object.__new__(cls)
        g = math.gcd(denominator, *numerators)
        self._set(tuple(n // g for n in numerators), denominator // g)
        return self

    def __reduce__(self):
        return PositiveCombination._make, (self.numerators, self.denominator)


class SemipositiveWitness(Record):
    """Integer v with <v, w_i> >= 0 for every column and > 0 for at least one."""

    __slots__ = _fields = ("vector",)


def solve_positive_combination(w: IntMatrix) -> PositiveCombination | SemipositiveWitness:
    """Decide the strict alternative for the columns w_1..w_n of ``w``.

    Exactly one of the two outcomes exists: either a strictly positive rational
    vector lambda (normalised to lambda_i >= 1) with ``w @ lambda = 0``, or an
    integer witness pairing nonnegatively with every column and positively
    with at least one.  Decided by phase-one simplex on ``{w x = -w 1, x >= 0}``
    with the witness read off the Farkas dual.  The simplex pivots in plain
    integers, and lambda keeps its integer numerators and denominator.  Either
    outcome is re-checked in integers, and a failed check raises
    ``InternalError``.
    """
    n = w.cols
    if n < 1:
        raise InputError("need at least one column")
    rows = w.entries
    feasible, nums, den = _phase_one(rows, [-sum(row) for row in rows])
    if feasible:
        lam = [den + x for x in nums]  # lambda = 1 + x = lam / den
        if min(nums) < 0 or any(sum(map(mul, row, lam)) for row in rows):
            raise InternalError(f"phase one returned {nums}/{den}, not a point of w x = -w 1, x >= 0")
        return PositiveCombination._make(lam, den)
    v = _primitive(tuple(-x for x in nums))
    pairings = [sum(map(mul, v, col)) for col in zip(*rows)]
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
    tab = []
    for i, (row, b, s) in enumerate(zip(a_rows, rhs, signs)):
        t = [0] * (ncols + 1)
        t[:n] = row if s > 0 else [-x for x in row]
        t[n + i] = 1
        t[ncols] = s * b
        tab.append(t)
    basis = list(range(n, ncols))
    # reduced-cost row for minimising the artificial sum: minus the column
    # sums, plus the cost 1 of each artificial column (whose sum is 1)
    z = [-sum(col) for col in zip(*tab)]
    z[n:ncols] = [0] * m
    den = 1

    while True:
        for enter in range(ncols):
            if z[enter] < 0:
                break
        else:
            break
        leave = -1
        for i, row in enumerate(tab):
            r = row[enter]
            if r <= 0:
                continue
            if leave >= 0:
                # ratio row[-1] / r against the best one, cross-multiplied
                a, b = row[-1] * best_r, best_rhs * r
                if a > b or (a == b and basis[i] > basis[leave]):
                    continue
            leave, best_r, best_rhs = i, r, row[-1]
        if leave < 0:  # phase one is bounded below by zero
            raise InternalError("unbounded phase-one objective")
        prow = tab[leave]
        piv = best_r
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                if den == 1:
                    tab[i] = [x * piv - f * p for x, p in zip(row, prow)]
                else:
                    tab[i] = [(x * piv - f * p) // den for x, p in zip(row, prow)]
        f = z[enter]
        if den == 1:
            z = [x * piv - f * p for x, p in zip(z, prow)]
        else:
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
