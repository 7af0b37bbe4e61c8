"""Exact rational convex geometry at desk scale.

Cones are given by integer generators (V-form) or integer halfspace normals
(H-form); conversion runs a naive double description pass that tracks the
lineality space explicitly, so cones containing lines (projections create
them) are first-class.  A cone runs each conversion at most once: the double
description of its generators gives the dual, whose extreme rays are the
facet normals, and that of its halfspaces gives its own lineality and extreme
rays (known already for an H-form cone).  Faces are read off the incidence of
rays and facets, with no further conversion.  The refinement splits cells by
the input facet hyperplanes one at a time, so it builds only the nonempty
sign cells.

Intended scale is ambient rank <= 4 and a few dozen cones; everything favors
verifiable exactness over speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import InputError, InternalError
from .exact import IntMatrix, _primitive
from .rationals import rat


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _project_off(lineality, vector):
    """Primitive integer representative of ``vector`` modulo span(lineality).

    Orthogonal projection without fractions: over an integer-orthogonalised
    basis, each rejection v <- (o.o)v - (v.o)o is a positive multiple of the
    rational one, so the primitive result is the same.  Returns the zero
    tuple when the vector lies in the span.
    """
    def reject(v, ortho):
        for o in ortho:
            oo, vo = _dot(o, o), _dot(v, o)
            if vo:
                v = _primitive(tuple(oo * x - vo * y for x, y in zip(v, o)))
        return v

    ortho: list[tuple[int, ...]] = []
    for b in lineality:
        w = reject(tuple(b), ortho)
        if any(w):
            ortho.append(w)
    return _primitive(reject(tuple(vector), ortho))


def _dd_from_halfspaces(rank: int, halfspaces) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Double description: lineality basis and extreme rays of an H-form cone.

    Starts from the whole space and adds one halfspace at a time.  A halfspace
    that cuts the current lineality turns one lineality direction into a ray
    and projects the others; otherwise the classic positive/negative ray
    pairing applies, with the combinatorial adjacency test on the zero sets of
    the halfspaces processed so far.  Rays are kept as primitive
    representatives orthogonal to the current lineality, which makes
    deduplication and the adjacency bookkeeping exact.
    """
    lineality: list[tuple[int, ...]] = [
        tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)
    ]
    rays: list[tuple[int, ...]] = []
    processed: list[tuple[int, ...]] = []

    for a in halfspaces:
        a = tuple(int(x) for x in a)
        lin_vals = [_dot(a, l) for l in lineality]
        if any(v != 0 for v in lin_vals):
            idx = next(i for i, v in enumerate(lin_vals) if v != 0)
            l0 = lineality[idx]
            v0 = lin_vals[idx]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == idx:
                    continue
                vl = lin_vals[i]
                new_lin.append(_primitive(tuple(v0 * x - vl * y for x, y in zip(l, l0))))
            lineality = new_lin
            new_rays = []
            for r in rays:
                vr = _dot(a, r)
                new_rays.append(tuple(v0 * x - vr * y for x, y in zip(r, l0)))
            new_rays.append(l0)
            rays = _dedupe(
                _project_off(lineality, r) for r in new_rays
            )
            processed.append(a)
            continue

        vals = {r: _dot(a, r) for r in rays}
        plus = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        minus = [r for r in rays if vals[r] < 0]
        if not minus:
            processed.append(a)
            rays = sorted(plus + zero)
            continue
        zero_sets = {r: frozenset(i for i, h in enumerate(processed) if _dot(h, r) == 0) for r in rays}
        combos = []
        for p, m in itertools.product(plus, minus):
            common = zero_sets[p] & zero_sets[m]
            adjacent = not any(
                r is not p and r is not m and zero_sets[r] >= common for r in rays
            )
            if adjacent:
                w = tuple(vals[p] * x - vals[m] * y for x, y in zip(m, p))
                combos.append(_project_off(lineality, w))
        rays = _dedupe(itertools.chain(plus, zero, combos))
        processed.append(a)

    return sorted(lineality), sorted(rays)


def _dedupe(vectors) -> list[tuple[int, ...]]:
    out = []
    seen = set()
    for v in vectors:
        v = tuple(int(x) for x in v)
        if any(x != 0 for x in v) and v not in seen:
            seen.add(v)
            out.append(v)
    return sorted(out)


class Cone:
    """Convex rational polyhedral cone, possibly containing lines."""

    __slots__ = ("ambient_rank", "generators", "__dict__")

    def __init__(self, ambient_rank: int, generators=()):
        gens = _dedupe(_primitive(tuple(int(x) for x in g)) for g in generators)
        for g in gens:
            if len(g) != ambient_rank:
                raise InputError("generator has the wrong length")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def _from_vform(cls, ambient_rank: int, lineality, rays) -> "Cone":
        """The cone with a known lineality basis and extreme rays, which it keeps."""
        cone = cls(ambient_rank, [*rays, *lineality, *(tuple(-x for x in l) for l in lineality)])
        cone.__dict__["_canonical"] = (tuple(lineality), tuple(rays))
        return cone

    @classmethod
    def from_halfspaces(cls, ambient_rank: int, halfspaces) -> "Cone":
        return cls._from_vform(ambient_rank, *_dd_from_halfspaces(ambient_rank, halfspaces))

    @classmethod
    def full_space(cls, ambient_rank: int) -> "Cone":
        return cls.from_halfspaces(ambient_rank, [])

    @cached_property
    def _dual(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(lineality basis, extreme rays) of the dual cone."""
        lin, rays = _dd_from_halfspaces(self.ambient_rank, self.generators)
        return tuple(lin), tuple(rays)

    @cached_property
    def halfspaces(self) -> tuple[tuple[int, ...], ...]:
        """Integer normals with the cone = {x : <h, x> >= 0 for all h}.

        Rays of the dual plus both signs of the dual's lineality basis.
        """
        lin, rays = self._dual
        return tuple(sorted([*rays, *lin, *(tuple(-x for x in l) for l in lin)]))

    @cached_property
    def _canonical(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(lineality basis, extreme rays) from the halfspace form, unless given."""
        lin, rays = _dd_from_halfspaces(self.ambient_rank, self.halfspaces)
        return tuple(lin), tuple(rays)

    @property
    def lineality_basis(self) -> tuple[tuple[int, ...], ...]:
        return self._canonical[0]

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return self._canonical[1]

    @cached_property
    def dim(self) -> int:
        # the dual's lineality is the orthogonal complement of the cone's span
        return self.ambient_rank - len(self._dual[0])

    def contains_point(self, point) -> bool:
        point = [rat(x) for x in point]
        return all(_dot(h, point) >= 0 for h in self.halfspaces)

    def contains(self, other: "Cone") -> bool:
        return all(_dot(h, g) >= 0 for g in other.generators for h in self.halfspaces)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.contains(other)
            and other.contains(self)
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.key()))

    def key(self):
        """Deterministic identity key from the canonical V-form."""
        lin, rays = self._canonical
        oriented = sorted(min(l, tuple(-x for x in l)) for l in lin)
        return (self.dim, tuple(rays), tuple(oriented))

    def facet_normals(self) -> tuple[tuple[int, ...], ...]:
        """The irredundant inequality normals: the extreme rays of the dual.

        They are primitive and orthogonal to the dual's lineality, whose two
        signs give the equalities, so none is an equality or the negative of
        another.
        """
        return self._dual[1]

    def faces(self) -> list["Cone"]:
        """Every face, the cone itself and its minimal face included.

        A face is the cone's lineality space plus the cone over the extreme
        rays tight on some facet normals, so the faces are the intersections
        of the facets' sets of tight rays: they are read off the ray-facet
        incidence (Fukuda-Prodon, *Double description method revisited*,
        1996), with no double description.  Those rays are primitive and
        orthogonal to the lineality, so they are the face's canonical rays.
        """
        lin, rays = self._canonical
        tight = [frozenset(i for i, r in enumerate(rays) if _dot(h, r) == 0) for h in self.facet_normals()]
        everything = frozenset(range(len(rays)))
        found, frontier = {everything}, {everything}
        while frontier:
            frontier = {face & t for face in frontier for t in tight} - found
            found |= frontier
        faces = [Cone._from_vform(self.ambient_rank, lin, [rays[i] for i in sorted(f)]) for f in found - {everything}]
        return sorted([self, *faces], key=Cone.key)

    def __repr__(self):
        lin, rays = self._canonical
        return f"Cone(rank={self.ambient_rank}, rays={list(rays)}, lines={list(lin)})"


def dual_cone(cone: Cone) -> Cone:
    """All vectors pairing nonnegatively with the cone; double dual is identity."""
    return Cone._from_vform(cone.ambient_rank, *cone._dual)


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_rank != c2.ambient_rank:
        raise InputError("cannot intersect cones of different ambient rank")
    return Cone.from_halfspaces(c1.ambient_rank, list(c1.halfspaces) + list(c2.halfspaces))


def image_cone(cone: Cone, p: IntMatrix) -> Cone:
    """Image under an integer linear map, with primitive regenerated rays."""
    if p.cols != cone.ambient_rank:
        raise InputError("projection has the wrong number of columns")
    return Cone(p.rows, (p.apply(g) for g in cone.generators))


def _face_within(cone: Cone, part: Cone, other: Cone) -> bool:
    """Whether the smallest face of ``cone`` containing ``part`` lies in ``other``.

    That face is spanned by the generators of ``cone`` on which every
    halfspace tight at the sum of the rays of ``part`` vanishes (the sum lies
    in the relative interior of ``part`` modulo its lineality).
    """
    point = [sum(col) for col in zip(*part.rays)] or [0] * cone.ambient_rank
    tight = [h for h in cone.halfspaces if _dot(h, point) == 0]
    return all(
        _dot(h, g) >= 0
        for g in cone.generators
        if all(_dot(t, g) == 0 for t in tight)
        for h in other.halfspaces
    )


def is_face(face: Cone, cone: Cone) -> bool:
    """True when ``face`` equals the part of ``cone`` tight on some halfspaces."""
    return cone.contains(face) and _face_within(cone, face, face)


def _meets_in_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether the intersection of two cones is a face of both."""
    meet = intersect(c1, c2)
    return _face_within(c1, meet, c2) and _face_within(c2, meet, c1)


@dataclass(frozen=True)
class Fan:
    """Finite collection of cones closed under faces with proper pairwise
    intersections (validated on the outputs of the refinement)."""

    ambient_rank: int
    cones: tuple[Cone, ...]

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        """Cones inside no other cone; equal cones count once (the first)."""
        out: list[Cone] = []
        for c in self.cones:
            if not any(o.contains(c) and not c.contains(o) for o in self.cones) and c not in out:
                out.append(c)
        return tuple(out)

    def validate(self):
        """Every two cones meet in a common face.

        Checked as: every two maximal cones meet in a common face, and every
        cone is a face of a maximal cone.  If faces t1, t2 lie in maximal
        s1, s2, then t1 & t2 is a face of s1 & s2 and so of both.
        """
        maximal = self.maximal_cones
        if not (
            all(_meets_in_common_face(c1, c2) for c1, c2 in itertools.combinations(maximal, 2))
            and all(any(is_face(c, m) for m in maximal) for c in self.cones)
        ):
            raise InputError("cone intersection is not a common face")


def common_refinement(cones) -> Fan:
    """A common refinement of a family of full-dimensional cones that is a fan.

    Split: the whole space is split by the input facet hyperplanes one at a
    time; a cell on one closed side of a hyperplane stays whole, so only
    nonempty cells are built, and each keeps its sign vector.  The cells
    inside some input are kept.  Merge: two cells in the same inputs whose
    sign vectors differ in one place become the cell of the relaxed vector,
    their union, if it meets every other cell in a common face; the scan
    restarts after each merge.  So the cells stay a fan, and each lies in
    exactly the inputs whose interior it meets.  It need not be coarsest, and
    no coarsest one need exist: beside the cone spanned by (1, 1) and (3, 1),
    the half-plane {x >= 3y} must be cut along some ray inside it, and no cut
    is coarser than another.  The cells are closed under faces.  Cells of
    lower-dimensional inputs are dropped; covering the span is the caller's
    concern.
    """
    cones = list(cones)
    if not cones:
        raise InputError("need at least one cone")
    rank = cones[0].ambient_rank
    if any(c.ambient_rank != rank for c in cones):
        raise InputError("mixed ambient ranks")
    hyperplanes = sorted({max(h, tuple(-x for x in h)) for cone in cones for h in cone.facet_normals()})

    split = [((), [], Cone.full_space(rank))]  # (sign vector, cuts made, cell)
    for h in hyperplanes:
        out = []
        for signs, cuts, cell in split:
            vals = [_dot(h, r) for r in cell.rays]
            if not any(_dot(h, l) for l in cell.lineality_basis) and not min(vals) < 0 < max(vals):
                out.append((signs + (1 if max(vals) > 0 else -1,), cuts, cell))
                continue
            for s in (1, -1):
                side = cuts + [tuple(s * x for x in h)]
                out.append((signs + (s,), side, Cone.from_halfspaces(rank, side)))
        split = out

    cell_of: dict[frozenset, Cone] = {}
    cells: dict[frozenset, frozenset] = {}  # sign pattern -> owner set
    for signs, _, cell in split:
        owners = frozenset(i for i, cone in enumerate(cones) if cone.contains(cell))
        if owners:
            cell_of[frozenset(enumerate(signs))] = cell
            cells[frozenset(enumerate(signs))] = owners

    @cache
    def meets_properly(p, q) -> bool:
        return _meets_in_common_face(cell_of[p], cell_of[q])

    def next_merge():
        for pattern in sorted(cells, key=sorted):
            for i, s in sorted(pattern):
                relaxed = pattern - {(i, s)}
                twin = relaxed | {(i, -s)}
                if cells.get(twin) != cells[pattern]:
                    continue
                if relaxed not in cell_of:
                    cell_of[relaxed] = Cone.from_halfspaces(
                        rank, [tuple(t * x for x in hyperplanes[j]) for j, t in sorted(relaxed)]
                    )
                if all(meets_properly(relaxed, q) for q in cells if q != pattern and q != twin):
                    return pattern, twin, relaxed
        return None

    while (step := next_merge()) is not None:
        pattern, twin, relaxed = step
        cells[relaxed] = cells.pop(pattern)
        del cells[twin]

    closed = {face.key(): face for pattern in cells for face in cell_of[pattern].faces()}
    fan = Fan(rank, tuple(sorted(closed.values(), key=Cone.key)))
    try:
        fan.validate()
    except InputError as exc:
        raise InternalError(f"the refinement is not a fan: {exc}") from None
    return fan
