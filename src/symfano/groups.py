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

from .errors import ComputationCapError, InputError, InternalError, NotFiniteWithinCap
from .exact import IntMatrix, ProjPoint, Record, integer_kernel
from .rationals import rat, rational_pair, ratio_key, squarefree_decompose

# A finite subgroup of PGL2(Q) is cyclic of order 1, 2, 3, 4 or 6, or dihedral
# of order 4, 6, 8 or 12 (Beauville, "Finite subgroups of PGL2(K)", 2010): a
# closure reaching a 13th element proves its group infinite, and a group has a
# global fixed point exactly when it is trivial or cyclic.
MAX_FINITE_GROUP_ORDER = 12
# The largest order of a finite subgroup of GL_n(Z) for n = 0..5: the trivial
# group, then 2, 12 (dihedral), 48, 1152 and 3840 (Kuzmanovich-Pavlichenkov,
# "Finite groups of matrices whose entries are integers", Amer. Math. Monthly
# 2002).  At n = 6 it is 103 680, more than a closure should walk.
MAX_LATTICE_GROUP_ORDER = (1, 2, 12, 48, 1152, 3840)


class MoebiusElement(Record):
    """Invertible projective 2x2 transformation with rational entries.

    Stored as a primitive integer matrix: entries with gcd 1 and a positive
    first nonzero entry, so two proportional matrices compare and hash equal
    and a product costs one gcd.  ``matrix`` gives the same class scaled to a
    first nonzero entry 1, as rationals.  The public constructor validates its
    input and, like the loaders, clears denominators in ``_from_ratios``;
    products and inverses of valid elements are invertible by multiplicativity
    of the determinant and go through ``_primitive``.
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, matrix):
        try:
            (a, b), (c, d) = matrix
        except (TypeError, ValueError):
            raise InputError("a Moebius element needs a 2x2 matrix") from None
        p = self._from_ratios([(x.numerator, x.denominator) for x in map(rat, (a, b, c, d))])
        super().__init__(p.a, p.b, p.c, p.d)

    @classmethod
    def _from_ratios(cls, entries) -> "MoebiusElement":
        """The class of the matrix whose entries, row by row, are the
        rationals n/d of the four int pairs (n, d != 0) in ``entries``;
        InputError when it is singular."""
        scale = math.lcm(*(den for _, den in entries))
        a, b, c, d = (n * (scale // den) for n, den in entries)
        if a * d == b * c:
            raise InputError("Moebius matrix must have nonzero determinant")
        return cls._primitive(a, b, c, d)

    @classmethod
    def _primitive(cls, a: int, b: int, c: int, d: int) -> "MoebiusElement":
        """The class of an invertible integer matrix, taken without checks."""
        # an invertible matrix with a == 0 has b != 0
        g = math.gcd(a, b, c, d)
        if (a or b) < 0:
            g = -g
        if g != 1:
            a, b, c, d = a // g, b // g, c // g, d // g
        return cls._make(a, b, c, d)

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


def _close(generators, identity, cap: int, where: str) -> set:
    """The elements of the group that ``generators`` generate, identity
    included; NotFiniteWithinCap once there are more than ``cap``, the
    largest order of a finite subgroup of ``where``.

    Breadth first from the generators, identities and repeats dropped, by
    right products h * g: in a finite group each generator's inverse is a
    positive power of it, and an infinite group has infinitely many words.
    """
    gens = [g for g in dict.fromkeys(generators) if g != identity]
    seen, layer = {identity}, gens
    while layer:
        new = []
        for h in layer:
            if h not in seen:
                if len(seen) == cap:
                    raise NotFiniteWithinCap(
                        f"group closure reached {cap + 1} elements, so the group is infinite: "
                        f"finite subgroups of {where} have at most {cap}"
                    )
                seen.add(h)
                new.append(h)
        layer = [h * g for h in new for g in gens]
    return seen


def closure(generators) -> MoebiusGroup:
    """Projective group generated by ``generators``; NotFiniteWithinCap if it is infinite."""
    gens = [g if isinstance(g, MoebiusElement) else MoebiusElement(g) for g in generators]
    seen = _close(gens, MoebiusElement.identity(), MAX_FINITE_GROUP_ORDER, "PGL2(Q)")
    return MoebiusGroup(tuple(sorted(seen, key=MoebiusElement.sort_key)))


def moebius_through(points, images) -> MoebiusElement:
    """The one map (PGL2 is sharply 3-transitive) sending three distinct rational points to three
    distinct ones in order: frame(images) * frame(points)^-1, a frame sending (1:0), (0:1), (1:1) to them."""
    frames = []
    for (x1, y1), (x2, y2), (x3, y3) in ([p.coords for p in three] for three in (points, images)):
        s, t = x3 * y2 - x2 * y3, x1 * y3 - x3 * y1
        frames.append(MoebiusElement._primitive(s * x1, t * x2, s * y1, t * y2))
    return frames[1] * frames[0].inverse()


def _fixed_coords(g: MoebiusElement) -> tuple[list[tuple[int, ...]], int]:
    """The ``coords`` of the two fixed points of a non-identity element of
    finite order, unsorted, and the discriminant D of their form.

    They are the roots of the form c x^2 + (d - a) xy - b y^2, rational
    exactly when D = (d - a)^2 + 4bc is a square.  A finite subgroup of
    PGL2(Q) has no parabolic element (Beauville, 2010), so D != 0: the two
    roots differ, and with c == 0 the finite one has d != a.  The one
    caller, ``MoebiusGroup._exceptional_orbits``, skips the identity.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    disc = (d - a) ** 2 + 4 * b * c
    r = math.isqrt(disc) if disc >= 0 else -1
    if r * r == disc:
        if c:
            return [rational_pair(a - d + r, 2 * c), rational_pair(a - d - r, 2 * c)], disc
        return [(1, 0), rational_pair(b, d - a)], disc
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
    """Saturated basis of the common fixed sublattice of all generators, of a
    group that is finite.

    The group is closed first, as a symmetry of a complete variety acts on
    the lattice with finite order: NotFiniteWithinCap when it is infinite,
    and ComputationCapError above rank 5, where no order bound is kept.  A
    vector fixed by every generator is fixed by the whole group, so the
    kernel reads the generators alone.
    """
    rank = group.rank
    if rank >= len(MAX_LATTICE_GROUP_ORDER):
        raise ComputationCapError(
            f"cannot tell whether a lattice group of rank {rank} is finite: "
            f"lattice ranks above {len(MAX_LATTICE_GROUP_ORDER) - 1} are not supported"
        )
    ident = IntMatrix.identity(rank)
    _close(group.generators, ident, MAX_LATTICE_GROUP_ORDER[rank], f"GL{rank}(Z)")
    stacked = []
    for g in group.generators:
        stacked.extend((g - ident).entries)
    return integer_kernel(IntMatrix._make(tuple(stacked)))


def is_symmetric(group: LatticeAutGroup) -> bool:
    """True iff only the origin is fixed by the induced action."""
    return not fixed_sublattice(group)
