"""Finite symmetry groups in their two incarnations.

Lattice automorphism groups act on the character lattice and decide the
symmetry test (only 0 fixed).  Finite groups of projective 2x2 transformations
over Q act on the projective line; their exceptional orbits, computed once per
group, give both the threshold computations and the global fixed point test.
The line is integer data throughout: an element is a primitive integer
matrix, and a point is a primitive pair or a primitive irreducible binary
quadratic form with a choice of root (``exact.ProjPoint``), so orbits, fixed
points, hashes and sort keys build no rationals.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import IdentityElement, InputError, InternalError, NotFiniteWithinCap
from .exact import IntMatrix, ProjPoint, Record, integer_kernel
from .rationals import rat, rational_pair, ratio_key, squarefree_decompose

# A finite subgroup of PGL2(Q) is cyclic of order 1, 2, 3, 4 or 6, or dihedral
# of order 4, 6, 8 or 12 (Beauville, "Finite subgroups of PGL2(K)", 2010): a
# closure reaching a 13th element proves its group infinite, and a group has a
# global fixed point exactly when it is trivial or cyclic.
MAX_FINITE_GROUP_ORDER = 12


class MoebiusElement(Record):
    """Invertible projective 2x2 transformation with rational entries.

    Stored as a primitive integer matrix: entries with gcd 1 and a positive
    first nonzero entry, so two proportional matrices compare and hash equal
    and a product costs one gcd.  ``matrix`` gives the same class scaled to a
    first nonzero entry 1, as rationals.  The public constructor validates its
    input and clears denominators; products and inverses of valid elements are
    invertible by multiplicativity of the determinant and go through
    ``_primitive``.
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, matrix):
        try:
            (a, b), (c, d) = matrix
        except (TypeError, ValueError):
            raise InputError("a Moebius element needs a 2x2 matrix") from None
        entries = [rat(x) for x in (a, b, c, d)]
        a, b, c, d = entries
        if a * d - b * c == 0:
            raise InputError("Moebius matrix must have nonzero determinant")
        scale = math.lcm(*(x.denominator for x in entries))
        self._set(*(x.numerator * (scale // x.denominator) for x in entries))

    def _set(self, a: int, b: int, c: int, d: int) -> None:
        # an invertible matrix with a == 0 has b != 0
        g = math.gcd(a, b, c, d)
        if (a or b) < 0:
            g = -g
        if g != 1:
            a, b, c, d = a // g, b // g, c // g, d // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _primitive(cls, a: int, b: int, c: int, d: int) -> "MoebiusElement":
        """The class of an invertible integer matrix, taken without checks."""
        self = object.__new__(cls)
        self._set(a, b, c, d)
        return self

    def __reduce__(self):
        return MoebiusElement._primitive, (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> "MoebiusElement":
        return cls._primitive(1, 0, 0, 1)

    @property
    def matrix(self):
        """The entries as rationals, scaled to a first nonzero entry 1."""
        s = self.a or self.b
        return ((rat(self.a, s), rat(self.b, s)), (rat(self.c, s), rat(self.d, s)))

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def __mul__(self, other: "MoebiusElement") -> "MoebiusElement":
        return MoebiusElement._primitive(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusElement":
        return MoebiusElement._primitive(self.d, -self.b, -self.c, self.a)

    def apply(self, p: ProjPoint) -> ProjPoint:
        """The image of p, in integers with one gcd.

        A rational point (x : y) goes to (a x + b y : c x + d y).  A root of
        the form F goes to a root of F'(x, y) = F(d x - b y, -c x + a y),
        whose discriminant is det^2 times F's; the root keeps its sign s
        relative to F' when det > 0 and changes it when det < 0, and it
        changes again when F' is negated to make its first coefficient
        positive.  That coefficient is F(d, -c), never 0 because F has no
        rational root.  The image keeps p's radicand ``d``.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        if len(p.coords) == 2:
            x, y = p.coords
            return ProjPoint._make(rational_pair(a * x + b * y, c * x + d * y), None)
        A, B, C, s = p.coords
        A1 = (A * d - B * c) * d + C * c * c
        B1 = B * (a * d + b * c) - 2 * (A * b * d + C * a * c)
        C1 = (A * b - B * a) * b + C * a * a
        g = math.gcd(A1, B1, C1)
        if (A1 < 0) != (a * d < b * c):
            s = -s
        if A1 < 0:
            g = -g
        return ProjPoint._make((A1 // g, B1 // g, C1 // g, s), p.d)

    def sort_key(self):
        """The entries of ``matrix``, each as (numerator, denominator)."""
        s = self.a or self.b  # the first nonzero entry, which is positive
        return (ratio_key(self.a, s), ratio_key(self.b, s), ratio_key(self.c, s), ratio_key(self.d, s))

    def __repr__(self):
        e = self.matrix
        return f"MoebiusElement([[{e[0][0]}, {e[0][1]}], [{e[1][0]}, {e[1][1]}]])"


class MoebiusGroup(Record):
    """Complete closed list of projective classes, identity included."""

    _fields = ("elements",)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _exceptional_orbits(self) -> tuple[Orbit, ...]:
        # a fixed point already in a found orbit gives that orbit again, so
        # only the fixed point that seeds an orbit needs its print radicand
        orbits: list[Orbit] = []
        covered: set[tuple[int, ...]] = set()
        for g in self.elements:
            if g.is_identity():
                continue
            roots, disc = _fixed_coords(g)
            for k in roots:
                if k not in covered:
                    d = squarefree_decompose(disc)[1] if len(k) == 4 else None
                    orb = orbit_of(self, ProjPoint._make(k, d))
                    covered.update(p.coords for p in orb.points)
                    orbits.append(orb)
        if any(orb.stabilizer_order == 1 for orb in orbits):
            raise InternalError("an orbit of fixed points has a trivial stabilizer")
        orbits.sort(key=lambda o: (o.size, tuple(p.sort_key() for p in o.points)))
        return tuple(orbits)


def closure(generators) -> MoebiusGroup:
    """Projective group generated by ``generators``; NotFiniteWithinCap if it is infinite.

    Right products h * g suffice: in a finite group each generator's inverse
    is a positive power of it, and an infinite group has infinitely many words.
    """
    gens = [g if isinstance(g, MoebiusElement) else MoebiusElement(g) for g in generators]
    seen = {MoebiusElement.identity()}
    frontier = [MoebiusElement.identity()]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = h * g
                if prod not in seen:
                    if len(seen) == MAX_FINITE_GROUP_ORDER:
                        raise NotFiniteWithinCap(
                            f"group closure reached {MAX_FINITE_GROUP_ORDER + 1} elements, so "
                            "the group is infinite: finite subgroups of PGL2(Q) have at most "
                            f"{MAX_FINITE_GROUP_ORDER}"
                        )
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return MoebiusGroup(tuple(sorted(seen, key=MoebiusElement.sort_key)))


def fixed_points(g: MoebiusElement) -> tuple[ProjPoint, ...]:
    """The one or two fixed points of a non-identity element, sorted.

    They are the roots of the form c x^2 + (d - a) xy - b y^2, rational
    exactly when its discriminant D = (d - a)^2 + 4bc is a square.  Otherwise
    both roots print over the ``d`` that ``squarefree_decompose`` leaves of D.
    A single point is returned exactly for parabolic elements (D == 0).
    """
    roots, disc = _fixed_coords(g)
    d = squarefree_decompose(disc)[1] if len(roots[0]) == 4 else None
    return tuple(sorted((ProjPoint._make(k, d) for k in roots), key=ProjPoint.sort_key))


def _fixed_coords(g: MoebiusElement) -> tuple[list[tuple[int, ...]], int]:
    """The ``coords`` of the fixed points of a non-identity element, unsorted,
    and the discriminant D of their form."""
    if g.is_identity():
        raise IdentityElement("every point is fixed")
    a, b, c, d = g.a, g.b, g.c, g.d
    disc = (d - a) ** 2 + 4 * b * c
    r = math.isqrt(disc) if disc >= 0 else -1
    if r * r == disc:
        if c:
            return list({rational_pair(a - d + r, 2 * c), rational_pair(a - d - r, 2 * c)}), disc
        return list({(1, 0), rational_pair(b, d - a)}), disc
    k = math.gcd(c, d - a, b)
    if c < 0:
        k = -k
    form = (c // k, (d - a) // k, -b // k)
    return [(*form, 1), (*form, -1)], disc


class Orbit(Record):
    __slots__ = _fields = ("points", "stabilizer_order")

    @property
    def size(self) -> int:
        return len(self.points)

    def __str__(self):
        return "{" + ", ".join(str(p) for p in self.points) + "}"


def orbit_of(group: MoebiusGroup, p: ProjPoint) -> Orbit:
    pts = {g.apply(p) for g in group}
    if group.order % len(pts) != 0:
        raise InternalError("orbit size does not divide the group order")
    return Orbit(tuple(sorted(pts, key=ProjPoint.sort_key)), group.order // len(pts))


def exceptional_orbits(group: MoebiusGroup) -> list[Orbit]:
    """All orbits of points with nontrivial stabilizer, each listed once.

    These are the orbits of the fixed points of the nontrivial elements; the
    trivial group has none.  They are computed once per group; each call
    returns a new list.
    """
    return list(group._exceptional_orbits)


def has_global_fixed_point(group: MoebiusGroup) -> bool:
    """True iff some point is fixed by every element (iff the group is trivial
    or cyclic): a global fixed point of a nontrivial group is an exceptional
    orbit of size 1."""
    return group.order == 1 or any(o.size == 1 for o in exceptional_orbits(group))


# ---------------------------------------------------------------------------
# Lattice side
# ---------------------------------------------------------------------------


class LatticeAutGroup(Record):
    """Group of lattice automorphisms given by unimodular integer generators."""

    __slots__ = _fields = ("rank", "generators")

    def __init__(self, rank: int, generators):
        gens = tuple(g if isinstance(g, IntMatrix) else IntMatrix(g) for g in generators)
        if not gens:
            raise InputError("generator list must be nonempty (use the identity)")
        for g in gens:
            if g.rows != rank or g.cols != rank:
                raise InputError(f"generator is not {rank}x{rank}")
            if not g.is_unimodular():
                raise InputError("lattice generators must be unimodular")
        super().__init__(rank, gens)

    def __repr__(self):
        return f"LatticeAutGroup(rank={self.rank}, generators={list(self.generators)})"


def fixed_sublattice(group: LatticeAutGroup) -> list[tuple[int, ...]]:
    """Saturated basis of the common fixed sublattice of all generators.

    A vector fixed by every generator is fixed by the whole group, so no
    closure is needed on the lattice side.
    """
    ident = IntMatrix.identity(group.rank)
    stacked = []
    for g in group.generators:
        stacked.extend((g - ident).entries)
    return integer_kernel(IntMatrix._make(tuple(stacked), group.rank))


def is_symmetric(group: LatticeAutGroup) -> bool:
    """True iff only the origin is fixed by the induced action."""
    return not fixed_sublattice(group)
