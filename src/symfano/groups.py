"""Finite symmetry groups in their two incarnations.

Lattice automorphism groups act on the character lattice and decide the
symmetry test (only 0 fixed).  Finite groups of projective 2x2 transformations
over Q act on the projective line; their exceptional orbits, computed once per
group, give both the threshold computations and the global fixed point test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import IdentityElement, InputError, InternalError, NotFiniteWithinCap
from .exact import IntMatrix, ProjPoint, QuadExtScalar, integer_kernel, quadratic_roots
from .rationals import ONE, ZERO, Q, rat, rat_key

# A finite subgroup of PGL2(Q) is cyclic of order 1, 2, 3, 4 or 6, or dihedral
# of order 4, 6, 8 or 12 (Beauville, "Finite subgroups of PGL2(K)", 2010): a
# closure reaching a 13th element proves its group infinite, and a group has a
# global fixed point exactly when it is trivial or cyclic.
MAX_FINITE_GROUP_ORDER = 12


class MoebiusElement:
    """Invertible projective 2x2 transformation with rational entries.

    Stored with the first nonzero entry scaled to 1, so two proportional
    matrices compare and hash equal.  The public constructor validates its
    input; products and inverses of valid elements are invertible by
    multiplicativity of the determinant and go through ``_normalized``.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, matrix):
        try:
            (a, b), (c, d) = matrix
        except (TypeError, ValueError):
            raise InputError("a Moebius element needs a 2x2 matrix") from None
        a, b, c, d = (rat(x) for x in (a, b, c, d))
        if a * d - b * c == 0:
            raise InputError("Moebius matrix must have nonzero determinant")
        self._set(a, b, c, d)

    def _set(self, a: Q, b: Q, c: Q, d: Q) -> None:
        # an invertible matrix with a == 0 has b != 0
        scale = a if a else b
        if scale != 1:
            a, b, c, d = a / scale, b / scale, c / scale, d / scale
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _normalized(cls, a: Q, b: Q, c: Q, d: Q) -> "MoebiusElement":
        """The class of an invertible matrix of Fractions, taken without checks."""
        self = object.__new__(cls)
        self._set(a, b, c, d)
        return self

    def __setattr__(self, *_):
        raise AttributeError("MoebiusElement is immutable")

    @classmethod
    def identity(cls) -> "MoebiusElement":
        return cls._normalized(ONE, ZERO, ZERO, ONE)

    @property
    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def __mul__(self, other: "MoebiusElement") -> "MoebiusElement":
        return MoebiusElement._normalized(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusElement":
        return MoebiusElement._normalized(self.d, -self.b, -self.c, self.a)

    def apply(self, p: ProjPoint) -> ProjPoint:
        # a canonical point is (x, 1) or (1, 0)
        if p.is_infinity:
            x, y = QuadExtScalar._make(self.a), QuadExtScalar._make(self.c)
        else:
            x, y = p.x * self.a + self.b, p.x * self.c + self.d
        return ProjPoint._normalized(x, y)

    def __eq__(self, other):
        if not isinstance(other, MoebiusElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.sort_key())

    def sort_key(self):
        return tuple(rat_key(x) for x in (self.a, self.b, self.c, self.d))

    def __repr__(self):
        e = self.matrix
        return f"MoebiusElement([[{e[0][0]}, {e[0][1]}], [{e[1][0]}, {e[1][1]}]])"


@dataclass(frozen=True)
class MoebiusGroup:
    """Complete closed list of projective classes, identity included."""

    elements: tuple[MoebiusElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _exceptional_orbits(self) -> tuple[Orbit, ...]:
        # a fixed point already in a found orbit gives that orbit again
        orbits: list[Orbit] = []
        covered: set[ProjPoint] = set()
        for g in self.elements:
            if g.is_identity():
                continue
            for p in fixed_points(g):
                if p not in covered:
                    orb = orbit_of(self, p)
                    covered.update(orb.points)
                    orbits.append(orb)
        if any(orb.stabilizer_order == 1 for orb in orbits):
            raise InternalError("an orbit of fixed points has a trivial stabilizer")
        orbits.sort(key=lambda o: (o.size, tuple(p.sort_key() for p in o.points)))
        return tuple(orbits)


def closure(generators) -> MoebiusGroup:
    """Projective group generated by ``generators``; NotFiniteWithinCap if it is infinite."""
    gens = [g if isinstance(g, MoebiusElement) else MoebiusElement(g) for g in generators]
    seen = {MoebiusElement.identity()}
    frontier = [MoebiusElement.identity()]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                for prod in (h * g, g * h):
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
    """The one or two fixed points of a non-identity element.

    Affine fixed points solve c t^2 + (d - a) t - b = 0; infinity is fixed
    iff c == 0.  A single point is returned exactly for parabolic elements.
    """
    if g.is_identity():
        raise IdentityElement("every point is fixed")
    pts: list[ProjPoint] = []
    if g.c == 0:
        pts.append(ProjPoint.infinity())
        if g.a != g.d:
            pts.append(ProjPoint.from_affine(QuadExtScalar._make(g.b / (g.d - g.a))))
    else:
        pts.extend(ProjPoint.from_affine(t) for t in quadratic_roots(g.c, g.d - g.a, -g.b))
    return tuple(sorted(pts, key=ProjPoint.sort_key))


@dataclass(frozen=True)
class Orbit:
    points: tuple[ProjPoint, ...]
    stabilizer_order: int

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


class LatticeAutGroup:
    """Group of lattice automorphisms given by unimodular integer generators."""

    __slots__ = ("rank", "generators")

    def __init__(self, rank: int, generators):
        gens = tuple(g if isinstance(g, IntMatrix) else IntMatrix(g) for g in generators)
        if not gens:
            raise InputError("generator list must be nonempty (use the identity)")
        for g in gens:
            if g.rows != rank or g.cols != rank:
                raise InputError(f"generator is not {rank}x{rank}")
            if not g.is_unimodular():
                raise InputError("lattice generators must be unimodular")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, *_):
        raise AttributeError("LatticeAutGroup is immutable")

    def __repr__(self):
        return f"LatticeAutGroup(rank={self.rank}, generators={list(self.generators)})"


def fixed_sublattice(group: LatticeAutGroup) -> list[tuple[int, ...]]:
    """Saturated basis of the common fixed sublattice of all generators.

    A vector fixed by every generator is fixed by the whole group, so no
    closure is needed on the lattice side.
    """
    rank = group.rank
    ident = IntMatrix.identity(rank)
    stacked = []
    for g in group.generators:
        stacked.extend((g - ident).entries)
    if not stacked:
        return [tuple(row) for row in ident.entries]
    return integer_kernel(IntMatrix(stacked))


def is_symmetric(group: LatticeAutGroup) -> bool:
    """True iff only the origin is fixed by the induced action."""
    return not fixed_sublattice(group)
