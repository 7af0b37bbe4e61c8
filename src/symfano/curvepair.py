"""Log pairs on the projective line and their equivariant thresholds.

A marked pair carries finitely many points with rational coefficients (or the
marker ``NEG_INFINITY`` for a relaxed point).  The two predicates computed
here are the equivariant global log canonical threshold and the "every
invariant anticanonical divisor above the boundary stays log canonical" test.

On a curve a pair is log canonical iff every coefficient is at most 1, and
among invariant effective divisors of fixed degree the largest coefficient at
a point is achieved by piling the whole free mass evenly on that point's
orbit.  Both computations therefore reduce to one minimum over orbit classes:
the orbits of the marked points, the finitely many orbits with nontrivial
stabilizer, and the free orbit class of full group size.

Coefficients and thresholds are ``Fraction`` values, but the minimum and the
test compare them in ints: each side is an integer ratio, and two ratios
with positive denominators compare by cross-multiplication.  ``lct_g`` builds
one ``Fraction``, the value it returns, and ``is_valuable`` builds none.
"""

from __future__ import annotations

from .errors import CoefficientOutOfRange, InputError, NotInvariant
from .exact import ProjPoint, Record
from .groups import MoebiusGroup, exceptional_orbits, orbit_of
from .rationals import ONE, Q, ZERO, rat


class _NegInfinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


#: marker coefficient for a relaxed (no lower bound) point
NEG_INFINITY = _NegInfinity()


def is_neg_infinity(coeff) -> bool:
    return coeff is NEG_INFINITY


class MarkedCurvePair(Record):
    """Projective line with pairwise distinct marked points and coefficients."""

    __slots__ = _fields = ("marked",)

    def __init__(self, marked):
        entries = []
        seen = set()
        for point, coeff in marked:
            if not isinstance(point, ProjPoint):
                raise InputError(f"not a projective point: {point!r}")
            if point in seen:
                raise InputError(f"point {point} marked twice")
            seen.add(point)
            entries.append((point, coeff if is_neg_infinity(coeff) else rat(coeff)))
        super().__init__(tuple(entries))

    def __iter__(self):
        return iter(self.marked)

    def __len__(self):
        return len(self.marked)

    def coefficient(self, point: ProjPoint):
        for p, c in self.marked:
            if p == point:
                return c
        return ZERO

    @property
    def has_neg_infinity(self) -> bool:
        return any(is_neg_infinity(c) for _, c in self.marked)

    def __repr__(self):
        inner = " + ".join(f"{c}*({p})" for p, c in self.marked)
        return f"MarkedCurvePair({inner or '0'})"


def finite_degree(pair: MarkedCurvePair) -> Q:
    """Sum of the finite coefficients; -infinity entries contribute nothing."""
    return Q(*_ratio_sum(c for _, c in pair if not is_neg_infinity(c)))


def _ratio_sum(coeffs) -> tuple[int, int]:
    """The sum of rationals as ints (numerator, denominator > 0), unreduced."""
    n, d = 0, 1
    for c in coeffs:
        n, d = n * c.denominator + c.numerator * d, d * c.denominator
    return n, d


class OrbitClass(Record):
    """One orbit class entering the threshold minimum.

    ``kind`` is marked, exceptional or generic; ``coeff`` is rational, or
    NEG_INFINITY on a relaxed marked orbit; ``orbit`` is None for the
    generic class.
    """

    __slots__ = _fields = ("kind", "size", "coeff", "orbit")

    def describe(self) -> str:
        where = "generic orbit" if self.orbit is None else f"orbit {self.orbit}"
        return f"{self.kind} {where} of size {self.size} with coefficient {self.coeff}"


def orbit_classes(pair: MarkedCurvePair, group: MoebiusGroup) -> list[OrbitClass]:
    """Marked orbits, untouched exceptional orbits, then the generic class.

    Raises NotInvariant unless the marked set is a union of orbits with a
    constant coefficient on each.
    """
    classes: list[OrbitClass] = []
    coeff_of = {p: c for p, c in pair}
    marked_orbits: set[tuple[ProjPoint, ...]] = set()
    consumed: set[ProjPoint] = set()
    for p, c in pair:
        if p in consumed:
            continue
        orb = orbit_of(group, p)
        for q in orb.points:
            if q not in coeff_of:
                raise NotInvariant(f"support is not orbit-closed: {q} is unmarked")
            # NEG_INFINITY is a singleton equal only to itself
            if coeff_of[q] != c:
                raise NotInvariant(f"coefficient not constant on the orbit of {p}")
            consumed.add(q)
        marked_orbits.add(orb.points)
        classes.append(OrbitClass("marked", orb.size, c, orb))
    for orb in exceptional_orbits(group):
        if orb.points not in marked_orbits:
            classes.append(OrbitClass("exceptional", orb.size, ZERO, orb))
    classes.append(OrbitClass("generic", group.order, ZERO, None))
    return classes


class LctResult(Record):
    """Threshold value (None means no constraint at all) plus the tight class."""

    __slots__ = _fields = ("value", "witness")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def capped_at_one(self) -> Q:
        if self.value is None or self.value > 1:
            return ONE
        return self.value


def lct_g(pair: MarkedCurvePair, group: MoebiusGroup) -> LctResult:
    """Equivariant global log canonical threshold of the pair.

    The minimum over orbit classes of size * (1 - c) / (2 - deg), where c is
    the class's coefficient and deg the boundary's degree; the first minimum
    is the witness.  Coefficients must be finite with 0 <= b <= 1 and
    constant on orbits.  A boundary of degree >= 2 leaves no invariant divisor
    to test, so the threshold is reported as infinite; callers cap at 1.
    """
    for p, c in pair:
        if is_neg_infinity(c):
            raise CoefficientOutOfRange(f"-infinity coefficient at {p}")
        if c.numerator < 0 or c.numerator > c.denominator:
            raise CoefficientOutOfRange(f"coefficient {c} at {p} outside [0, 1]")
    dn, dd = _ratio_sum(c for _, c in pair)
    classes = orbit_classes(pair, group)
    if dn >= 2 * dd:
        return LctResult(None, None)
    # 2 - deg > 0 is common to all classes: minimise size * (1 - c) = bn/bd
    bn = bd = witness = None
    for cls in classes:
        c = cls.coeff
        n, d = cls.size * (c.denominator - c.numerator), c.denominator
        if witness is None or n * bd < bn * d:
            bn, bd, witness = n, d, cls
    return LctResult(Q(bn * dd, bd * (2 * dd - dn)), witness)


def is_valuable(pair: MarkedCurvePair, group: MoebiusGroup) -> tuple[bool, OrbitClass | None]:
    """Whether every invariant degree-2 divisor above the boundary is log canonical.

    With sigma the sum of the nonnegative finite coefficients, that fails at
    the first orbit class with bound + (2 - sigma) / size > 1, where bound is
    the class's coefficient, or 0 when it is negative or -infinity; sigma > 2
    makes it vacuously true.  Finite coefficients must be <= 1; -infinity and
    negative entries are allowed and simply impose no lower bound beyond
    effectivity.  Returns the violating orbit class on failure.
    """
    for p, c in pair:
        if not is_neg_infinity(c) and c.numerator > c.denominator:
            raise CoefficientOutOfRange(f"coefficient {c} at {p} exceeds 1")
    classes = orbit_classes(pair, group)
    sn, sd = _ratio_sum(c for _, c in pair if not is_neg_infinity(c) and c.numerator >= 0)
    if sn > 2 * sd:
        # no effective invariant divisor dominates the boundary: vacuously true
        return True, None
    for cls in classes:
        c = cls.coeff
        bn, bd = (0, 1) if is_neg_infinity(c) else (max(c.numerator, 0), c.denominator)
        # bn/bd + (2 - sn/sd)/size > 1, times bd * sd * size > 0
        if (bn - bd) * sd * cls.size + (2 * sd - sn) * bd > 0:
            return False, cls
    return True, None
