"""Exact kernels on integers: points of the projective line over Q or a
quadratic field, integer matrices with Smith normal form, and the
strict-positivity alternative for integer weight families.

The alternative has one decision, ``_decide``, and one check of its
certificates, ``_certifies``: every decision passes the check before it is
returned, and ``quotients.verify_stability_cert`` is the same check.

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
    whatever else it offers is computed from the fields.  It has two
    constructors:

    * ``__init__`` checks input.  ``Record(*values, **named)`` sets each
      field once, from the positional arguments in ``_fields`` order and
      then by name, and raises ``TypeError`` on a field missing, unknown or
      given twice, or on more positional arguments than fields; there are no
      defaults.  A subclass that checks or normalises its input keeps its own
      ``__init__`` and stores the fields through ``super().__init__``.
    * ``_make(*fields)`` stores the fields as given, in order.  Code builds
      values it computed, and knows to be valid, through it, and ``copy``,
      ``deepcopy`` and ``pickle`` rebuild every record through it, so a copy
      re-runs no input check.

    ``ProjPoint`` is the one exception: it stores its radicand ``d`` beside
    its one field, so it keeps its own ``_make(coords, d)`` and
    ``__reduce__``.  Records of one class are equal when their fields are,
    and a one-field record compares and hashes as its field; a record with a
    dict field is not hashable.
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

    @classmethod
    def _make(cls, *fields):
        """The record with ``fields`` in ``_fields`` order, taken as they are."""
        self = object.__new__(cls)
        for field, value in zip(cls._fields, fields):
            object.__setattr__(self, field, value)
        return self

    def __reduce__(self):
        return self._make, tuple([getattr(self, f) for f in self._fields])

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


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple; InputError on an entry whose type is not exactly int, a bool among them."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise InputError(f"{what} entry {x!r} is not an int")
    return values


class IntMatrix(Record):
    """Immutable rectangular matrix of arbitrary-precision integers.

    ``entries``, a tuple of int tuples of one length, is the one field;
    ``rows`` and ``cols`` are computed from it, ``cols`` being 0 when there
    are no rows.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries):
        entries = tuple(_int_tuple(row, "matrix") for row in entries)
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise InputError("ragged matrix")
        super().__init__(entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        entries = self.entries
        return len(entries[0]) if entries else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._make(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("dimension mismatch in product")
        ot = other.entries
        return IntMatrix._make(
            tuple(
                tuple(sum(a * ot[k][j] for k, a in enumerate(row)) for j in range(other.cols))
                for row in self.entries
            )
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
        return IntMatrix._make(tuple(tuple(a - b for a, b in zip(*r)) for r in rows))

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

    return tuple(IntMatrix._make(tuple(map(tuple, x))) for x in (u, m, v))


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
        super().__init__(tuple(c.numerator * (den // c.denominator) for c in lam), den)


class SemipositiveWitness(Record):
    """Integer v with <v, w_i> >= 0 for every column and > 0 for at least one."""

    __slots__ = _fields = ("vector",)

    def __init__(self, vector):
        super().__init__(_int_tuple(vector, "witness"))


def _certifies(rows, polystable: bool, ints: tuple[int, ...]) -> bool:
    """Whether ``ints`` certifies the outcome ``polystable`` of the strict
    alternative for the columns of the integer ``rows``: the one check of
    either certificate, which every decision passes.

    * A positive combination is ``(*numerators, denominator)``: one numerator
      per column, all of them and the denominator > 0, and every row pairs
      to 0 with the numerators.
    * A witness is its vector: one entry per row, pairing >= 0 with every
      column and > 0 with one.  With no column nothing pairs > 0, so no
      witness certifies the empty column set.

    Lengths are compared before any pairing, as ``map`` and ``zip`` would
    silently cut the longer of two vectors.
    """
    if polystable:
        # with one entry more than a row, ``map`` pairs the row with the
        # numerators and leaves the denominator out
        return (
            len(ints) == 1 + (len(rows[0]) if rows else 0)
            and min(ints) > 0
            and not any(sum(map(mul, row, ints)) for row in rows)
        )
    pairings = [sum(map(mul, ints, col)) for col in zip(*rows)]
    return len(ints) == len(rows) and max(pairings, default=0) > 0 and min(pairings) >= 0


def _decide(rows, interned: dict) -> tuple[bool, PositiveCombination | SemipositiveWitness]:
    """The strict alternative for the columns of the integer ``rows``, as
    the pair (is the outcome a positive combination, the outcome): exactly
    one of lambda > 0 (normalised to lambda_i >= 1) with w lambda = 0 and an
    integer witness that pairs nonnegatively with every column and
    positively with one exists.  Phase one on {w x = -w 1, x >= 0} decides
    it, and the witness is read off the Farkas dual.

    Every column set is answered, the empty one too: ``zip`` hands it over
    as no rows, and its answer is the empty positive combination, lambda =
    () over 1, without the simplex.  Every outcome must pass
    ``_certifies``, else ``InternalError`` is raised.

    ``interned`` is a dict, which the caller creates, that shares equal
    outcomes: each is keyed by its kind and integers, ``(True, (*numerators,
    denominator))`` or ``(False, vector)``.  Each distinct outcome is built
    once, and an equal one later comes back as the same pair.
    """
    feasible, nums, den = _phase_one(rows, [-sum(row) for row in rows]) if rows else (True, [], 1)
    if feasible:
        ints = [den + x for x in nums]  # lambda = 1 + x = (den + x) / den
        ints.append(den)
    else:
        ints = [-y for y in nums]  # the witness is -y
    ints = _primitive(tuple(ints))
    if not _certifies(rows, feasible, ints):
        if feasible:
            raise InternalError(f"phase one returned {nums}/{den}, not a point of w x = -w 1, x >= 0")
        pairings = [sum(map(mul, ints, col)) for col in zip(*rows)]
        raise InternalError(f"phase one returned {ints}, which pairs with the columns as {pairings}")
    key = (feasible, ints)
    answer = interned.get(key)
    if answer is None:
        cert = PositiveCombination._make(ints[:-1], ints[-1]) if feasible else SemipositiveWitness._make(ints)
        answer = interned[key] = (feasible, cert)
    return answer


def _phase_one(a_rows, rhs):
    """Feasibility of {A x = b, x >= 0} for integer A, b by simplex with Bland's rule.

    Fraction-free (Bareiss) pivoting, as in ``IntMatrix.det``: the tableau T
    and reduced-cost row z hold integers over one common denominator ``den``.
    A pivot on (l, e) keeps row l and maps every other row x of T and z to
    (x*piv - x[e]*T[l]) // den, then sets den = piv; each division is exact,
    and den > 0 because the ratio test only picks piv > 0.

    The ratio test always finds a row.  The objective is the sum of the
    artificials, all of them >= 0, so it is bounded below by 0.  A column
    with a negative reduced cost and no positive entry would be a ray along
    which the objective falls without bound; so the entering column has a
    positive entry, and phase one is never unbounded.

    Returns (True, X, den) with x = X / den feasible, else (False, Y, den)
    with y = Y / den satisfying y^T A <= 0 and y^T b > 0 (a Farkas witness
    for the original row orientation).

    Two paths make the same pivots and return the same triple.  A has two
    rows exactly when the torus has rank 2, the rank on the paper's Fano
    threefolds with a complexity-one action, so every LP of their loci has
    two rows: ``_two_row_phase_one`` holds that tableau in locals, which
    saves the general kernel's loop overhead.  Every other A goes to
    ``_general_phase_one``.  The row count, which the input fixes, chooses
    the path.

    With two rows a departed artificial column never enters again: its
    reduced cost stays > 0, as ``_two_row_phase_one`` proves, so that kernel
    scans no artificial column.  With three rows Bland's rule does bring one
    back on some LPs w x = -w 1, so the general kernel scans every column.

    z is determined by the tableau, T = adj(B) [A | I | b] over den = det B
    (Bareiss): den * z_j is den*[j is artificial] minus the sum of T[i][j]
    over the rows whose basic variable is artificial.  The two-row kernel
    reads Bland's reduced costs that way and keeps no z.  The general
    kernel keeps z: in its row loops, summing the artificial rows for each
    scan costs more than updating z at each pivot.
    """
    if len(a_rows) == 2:
        return _two_row_phase_one(a_rows, rhs)
    return _general_phase_one(a_rows, rhs)


def _two_row_phase_one(a_rows, rhs):
    """``_phase_one`` on two rows: the general kernel's pivots, unrolled,
    with no reduced-cost row and no scan of the artificial columns.

    The two tableau rows, the two basis indices and ``den`` are locals.
    Phase one costs 1 on each artificial column and 0 on each x column, so
    the reduced costs follow from the artificial rows, as ``_phase_one``
    says.  Bland's rule reads them in column order, up to the first
    negative one.  At the end den times the objective is the sum of the
    artificial rows' right-hand sides, and den * y_i / s_i is the sum of
    their entries in column n + i: the numbers ``-z[-1]`` and
    ``den - z[n + i]`` of the general kernel.

    No artificial column enters after it has left.  Let A' be A with each
    row negated where its right-hand side is negative.  Suppose a_1 is basic
    in row 1 and x_e in row 0 (the other case is symmetric).  Then
    den = A'0e, row 1 holds -A'1e in column n, and den times the reduced
    cost of the departed a_0 is A'0e + A'1e, which is > 0 by induction on
    the pivots:

    * if x_e entered at the start, A'0e + A'1e > 0 is Bland's entering test;
    * if x_e replaced x_f while a_1 stayed basic, row 0 left, so A'0e > 0;
      Bland's test on row 1 gave A'0f A'1e - A'1f A'0e > 0; and
      A'1f > -A'0f, with A'0f = den > 0, by induction.  So
      A'0f A'1e > A'1f A'0e > -A'0f A'0e, and A'1e > -A'0e.

    The basic artificial's reduced cost is 0, so only x columns enter; each
    pivot makes one basic, so after the first pivot at most one row is
    artificial, and only it is scanned.  The kernel stops when that row has
    no positive x entry, or when no row is artificial and so no reduced
    cost is negative.

    The leaving row is row 0 unless row 1 has a positive entry and a
    smaller ratio, or the same ratio and the smaller basis index (Bland's
    tie-break); the ratios are compared cross-multiplied.  Each pivot maps
    the other row by the same Bareiss step as the general kernel.
    """
    (r0, r1), (c0, c1) = a_rows, rhs
    n = len(r0)
    s0 = -1 if c0 < 0 else 1
    s1 = -1 if c1 < 0 else 1
    t0 = [*r0, 1, 0, c0] if s0 > 0 else [*(-x for x in r0), 1, 0, -c0]
    t1 = [*r1, 0, 1, c1] if s1 > 0 else [*(-x for x in r1), 0, 1, -c1]
    b0, b1 = n, n + 1
    den = 1

    # both rows are artificial only here, before the first pivot
    for enter in range(n):
        if t0[enter] + t1[enter] > 0:
            break
    else:
        enter = n
    while enter < n:
        p0 = t0[enter]
        p1 = t1[enter]
        # row 0 has p0 > 0 whenever row 1 does not leave, as phase one is bounded
        if p1 > 0 and (p0 <= 0 or (a := t1[-1] * p0) < (b := t0[-1] * p1) or (a == b and b1 < b0)):
            t0 = [(x * p1 - p0 * y) // den for x, y in zip(t0, t1)]
            den, b1 = p1, enter
        else:
            t1 = [(x * p0 - p1 * y) // den for x, y in zip(t1, t0)]
            den, b0 = p0, enter
        if b0 >= n:
            art = t0
        elif b1 >= n:
            art = t1
        else:
            break
        for enter in range(n):
            if art[enter] > 0:
                break
        else:
            break

    art0 = b0 >= n
    art1 = b1 >= n
    if art0 * t0[-1] + art1 * t1[-1] == 0:
        x = [0] * n
        if b0 < n:
            x[b0] = t0[-1]
        if b1 < n:
            x[b1] = t1[-1]
        return True, x, den
    return False, [s0 * (art0 * t0[n] + art1 * t1[n]), s1 * (art0 * t0[n + 1] + art1 * t1[n + 1])], den


def _general_phase_one(a_rows, rhs):
    """``_phase_one`` on any number of rows, and the reference that
    ``_two_row_phase_one`` is tested against."""
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
        # some row has r > 0, as phase one is bounded below by zero
        prow = tab[leave]
        piv = best_r
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
