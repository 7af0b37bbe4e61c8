"""Exact rational convex geometry at desk scale.

Cones are given by integer generators (V-form) or integer halfspace normals
(H-form); conversion runs a naive double description pass that tracks the
lineality space explicitly, so cones containing lines (projections create
them) are first-class.  The pass is incremental: its state after some
halfspaces (lineality basis, extreme rays, halfspaces processed) is kept on
every cone built from halfspaces, and a cone cut out of a known one by more
halfspaces resumes that state instead of starting from the whole space.  So a
split cell costs one cut and an intersection the other cone's halfspaces.
The double description of a cone's generators gives the dual, whose extreme
rays are the facet normals.  Dimensions are read off the generators.  Faces
and face tests read the ray-halfspace incidence from the zero masks that the
double description keeps, with no further conversion and no dot product: a
face of a cone is its lineality space and some of its rays, and those rays
span a face when no other ray's mask holds the AND of theirs.  Two cones cut
out on opposite sides of the same hyperplanes meet in their faces on those
hyperplanes, so when one of those faces lies in the other, the meet is the
smaller one and the zero masks settle it with no description of the meet.
The refinement splits cells by the facet hyperplanes of the full-dimensional
inputs one at a time, so it builds only the cells that some input can hold,
a merged cell is cut out by the cuts of its two halves, and each face of
the cells is built once.

Intended scale is ambient rank <= 4 and a few dozen cones; everything favors
verifiable exactness over speed.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache, cached_property, reduce

from .errors import InputError, InternalError
from .exact import IntMatrix, Record, _int_tuple, _primitive


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _reject(vector, ortho):
    """A positive multiple of ``vector`` minus its projection onto span(ortho).

    Orthogonal projection without fractions: over an integer-orthogonalised
    basis, each rejection v <- (o.o)v - (v.o)o is a positive multiple of the
    rational one.
    """
    for o in ortho:
        vo = _dot(vector, o)
        if vo:
            oo = _dot(o, o)
            vector = _primitive(tuple(oo * x - vo * y for x, y in zip(vector, o)))
    return vector


def _orthogonal_basis(vectors) -> list[tuple[int, ...]]:
    """Integer Gram-Schmidt: pairwise orthogonal vectors spanning span(vectors)."""
    ortho: list[tuple[int, ...]] = []
    for b in vectors:
        w = _reject(tuple(b), ortho)
        if any(w):
            ortho.append(w)
    return ortho


def _dd_from_halfspaces(rank: int, halfspaces, start=None):
    """Double description: the state of an H-form cone after more halfspaces.

    A state is (lineality, rays, zeros, processed): a lineality basis in
    processing order, the extreme rays (sorted), for each ray the bit mask of
    the processed halfspaces that vanish on it, and the halfspaces processed
    so far, which cut out the cone.  ``start=None`` is the whole space; any
    other start is resumed and left as it is.  A halfspace that cuts the
    current lineality turns one lineality direction into a ray and projects
    the others; otherwise the classic positive/negative ray pairing applies,
    with the combinatorial adjacency test on the zero masks, which are kept
    up to date as rays change rather than recomputed.  Rays are kept as
    primitive representatives orthogonal to the current lineality, which
    makes deduplication and the adjacency bookkeeping exact.

    A ray r moved by a lineality pivot l0, with a.l0 = v0 > 0, becomes the
    rejection of v0 r - (a.r) l0 from the new lineality, and that is never
    zero: the ray r is nonzero and orthogonal to the old lineality, whose
    span holds l0 and the new lineality, so the rejection keeps the
    component v0 r, and v0 > 0.

    The lineality pivot is the first basis vector the halfspace does not
    vanish on, so every basis vector keeps its own coordinate at which the
    others vanish: the basis is the one of its span for that coordinate set,
    which is fixed by the span.  A sorted basis would lose that order, so the
    state keeps the processing order; the rays are canonical in any order.
    """
    if start is None:
        lineality = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
        rays: list[tuple[int, ...]] = []
        zeros: dict[tuple[int, ...], int] = {}
        processed: list[tuple[int, ...]] = []
    else:
        lineality, rays, masks, processed = start
        lineality, rays, processed = list(lineality), list(rays), list(processed)
        # bit i of zeros[r] is set when processed[i] vanishes on r
        zeros = dict(zip(rays, masks))

    for a in halfspaces:
        bit = 1 << len(processed)
        processed.append(a)
        lin_vals = [_dot(a, l) for l in lineality]
        idx = next((i for i, v in enumerate(lin_vals) if v), None)
        if idx is not None:
            l0, v0 = lineality.pop(idx), lin_vals.pop(idx)
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lineality = [
                _primitive(tuple(v0 * x - vl * y for x, y in zip(l, l0))) if vl else l
                for l, vl in zip(lineality, lin_vals)
            ]
            ortho = _orthogonal_basis(lineality)
            # every earlier halfspace vanishes on the old lineality, so the
            # moved rays keep their zero sets and now also vanish on a; the
            # old pivot direction vanishes on all but a
            moved = {}
            for r in rays:
                vr = _dot(a, r)
                w = _primitive(_reject(tuple(v0 * x - vr * y for x, y in zip(r, l0)), ortho))
                moved[w] = zeros[r] | bit
            w = _primitive(_reject(l0, ortho))
            moved[w] = bit - 1
            zeros = moved
            rays = sorted(moved)
            continue

        vals = {r: _dot(a, r) for r in rays}
        for r in rays:
            if not vals[r]:
                zeros[r] |= bit
        minus = [r for r in rays if vals[r] < 0]
        if not minus:
            continue
        plus = [r for r in rays if vals[r] > 0]
        kept = [r for r in rays if vals[r] >= 0]
        for p, m in itertools.product(plus, minus):
            common = zeros[p] & zeros[m]
            if not any(r is not p and r is not m and zeros[r] & common == common for r in rays):
                # p and m are orthogonal to the lineality, so w needs no projection
                w = _primitive(tuple(vals[p] * x - vals[m] * y for x, y in zip(m, p)))
                zeros[w] = common | bit
                kept.append(w)
        rays = _dedupe(kept)
        zeros = {r: zeros[r] for r in rays}

    return tuple(lineality), tuple(rays), tuple(zeros[r] for r in rays), tuple(processed)


def _dedupe(vectors) -> list[tuple[int, ...]]:
    """The distinct nonzero vectors, sorted."""
    return sorted({v for v in vectors if any(v)})


def _int_vectors(rank: int, vectors, what: str) -> list[tuple[int, ...]]:
    """The vectors as int tuples of length ``rank``; anything else is an input error."""
    out = [_int_tuple(v, what) for v in vectors]
    if any(len(v) != rank for v in out):
        raise InputError(f"{what} has the wrong length")
    return out


def _negatives(vectors):
    return [tuple(map(operator.neg, v)) for v in vectors]


def _rays_in(rays, mask: int) -> tuple:
    """The entries j of ``rays`` with bit j of ``mask`` set."""
    return tuple(r for j, r in enumerate(rays) if mask >> j & 1)


def _same_rank(c1: "Cone", c2: "Cone"):
    if c1.ambient_rank != c2.ambient_rank:
        raise InputError("cannot compare cones of different ambient rank")


class Cone(Record):
    """Convex rational polyhedral cone, possibly containing lines.

    The public constructors are the input boundary: they accept exactly int
    vectors of length ``ambient_rank``.  Cones derived from known ones are
    built without re-checking.  Two cones are equal when they are the same
    set, whatever generators they were given: they compare by ambient rank
    and ``key()``, the canonical form of the set.
    """

    __slots__ = ("ambient_rank", "generators", "__dict__")
    _fields = ("ambient_rank", "generators")

    def __init__(self, ambient_rank: int, generators=()):
        gens = _int_vectors(ambient_rank, generators, "generator")
        super().__init__(ambient_rank, tuple(_dedupe(map(_primitive, gens))))

    @classmethod
    def _from_vform(cls, ambient_rank: int, lineality, rays) -> "Cone":
        """The cone with a known (sorted) lineality basis and extreme rays, which it keeps."""
        cone = cls._make(ambient_rank, tuple(sorted([*rays, *lineality, *_negatives(lineality)])))
        cone.__dict__["_canonical"] = (tuple(lineality), tuple(rays))
        return cone

    @classmethod
    def _from_state(cls, ambient_rank: int, state) -> "Cone":
        """The cone of a double description state, which it keeps for resuming."""
        lin, rays, _, processed = state
        cone = cls._from_vform(ambient_rank, sorted(lin), rays)
        cone.__dict__["_state"] = state
        cone.__dict__["_inequalities"] = processed
        return cone

    @classmethod
    def from_halfspaces(cls, ambient_rank: int, halfspaces) -> "Cone":
        """{x : <h, x> >= 0 for every h}, keeping its description for resuming."""
        halfspaces = _int_vectors(ambient_rank, halfspaces, "halfspace")
        return cls._from_state(ambient_rank, _dd_from_halfspaces(ambient_rank, halfspaces))

    @classmethod
    def full_space(cls, ambient_rank: int) -> "Cone":
        return cls.from_halfspaces(ambient_rank, [])

    def _cut(self, halfspaces) -> "Cone":
        """This cone intersected with more halfspaces, resuming its description.

        The result is the one of a double description from the whole space
        of both halfspace forms: its rays are canonical, and its lineality
        basis depends only on its span (see ``_dd_from_halfspaces``).
        """
        return Cone._from_state(self.ambient_rank, _dd_from_halfspaces(self.ambient_rank, halfspaces, self._state))

    @cached_property
    def _dual(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(lineality basis, extreme rays) of the dual cone."""
        lin, rays, _, _ = _dd_from_halfspaces(self.ambient_rank, self.generators)
        return tuple(sorted(lin)), rays

    @cached_property
    def halfspaces(self) -> tuple[tuple[int, ...], ...]:
        """Integer normals with the cone = {x : <h, x> >= 0 for all h}.

        Rays of the dual plus both signs of the dual's lineality basis.
        """
        lin, rays = self._dual
        return tuple(sorted([*rays, *lin, *_negatives(lin)]))

    @cached_property
    def _inequalities(self) -> tuple[tuple[int, ...], ...]:
        """Halfspaces that cut out the cone: those it was built from, unless
        given (a face's are its cone's and the equalities that cut it out)."""
        return self.halfspaces

    @cached_property
    def _state(self):
        """Double description state, unless given: from the whole space, on demand."""
        return _dd_from_halfspaces(self.ambient_rank, self._inequalities)

    @cached_property
    def _canonical(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(lineality basis, extreme rays), sorted, from the halfspace form unless given."""
        lin, rays, _, _ = self._state
        return tuple(sorted(lin)), rays

    @property
    def lineality_basis(self) -> tuple[tuple[int, ...], ...]:
        return self._canonical[0]

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return self._canonical[1]

    @cached_property
    def dim(self) -> int:
        """The rank of the generators: len(lineality) + rank(rays) for a known V-form."""
        return len(_orthogonal_basis(self.generators))

    def contains(self, other: "Cone") -> bool:
        """Whether ``other`` lies in this cone; cones of different ambient
        rank are an input error."""
        _same_rank(self, other)
        return all(_dot(h, g) >= 0 for g in other.generators for h in self._inequalities)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.key() == other.key()

    def __hash__(self):
        return hash((self.ambient_rank, self.key()))

    def key(self):
        """Deterministic identity key from the canonical V-form, computed once."""
        return self._key

    @cached_property
    def _key(self):
        lin, rays = self._canonical
        oriented = sorted(min(l, tuple(-x for x in l)) for l in lin)
        return (self.dim, rays, tuple(oriented))

    def facet_normals(self) -> tuple[tuple[int, ...], ...]:
        """The irredundant inequality normals: the extreme rays of the dual.

        They are primitive and orthogonal to the dual's lineality, whose two
        signs give the equalities, so none is an equality or the negative of
        another.
        """
        return self._dual[1]

    @cached_property
    def _ray_masks(self) -> dict[tuple[int, ...], int]:
        """The zero mask of each extreme ray in the kept description, by ray."""
        _, rays, masks, _ = self._state
        return dict(zip(rays, masks))

    def _face_masks(self) -> set[int]:
        """Every face as the bit mask of its extreme rays among the cone's
        (bit j for ``rays[j]``), the cone itself and its minimal face included.

        A face is the cone's lineality space plus the cone over the extreme
        rays tight on some of the halfspaces that cut the cone out, so the
        faces are the intersections of the halfspaces' sets of tight rays:
        they are read off the ray-halfspace incidence, the zero masks of the
        cone's description (Fukuda-Prodon, *Double description method
        revisited*, 1996), with no double description of a face.
        """
        _, rays, masks, inequalities = self._state
        # bit j of tight[i] is set when inequalities[i] vanishes on rays[j]
        tight = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1) for i in range(len(inequalities))]
        everything = (1 << len(rays)) - 1
        found, frontier = {everything}, {everything}
        while frontier:
            frontier = {face & t for face in frontier for t in tight} - found
            found |= frontier
        return found

    def _face(self, face_mask: int) -> "Cone":
        """The face of the rays in ``face_mask`` (see ``_face_masks``); the
        cone itself for all of them.

        Those rays are primitive and orthogonal to the lineality, so they are
        the face's canonical rays, and the face is cut out by the cone's
        halfspaces and the negatives of those tight on it, the halfspaces in
        the AND of its rays' zero masks.
        """
        _, rays, masks, inequalities = self._state
        if face_mask == (1 << len(rays)) - 1:
            return self
        face_rays = _rays_in(rays, face_mask)
        tight = reduce(operator.and_, _rays_in(masks, face_mask), -1)
        face = Cone._from_vform(self.ambient_rank, self.lineality_basis, face_rays)
        equalities = _negatives(h for i, h in enumerate(inequalities) if tight >> i & 1)
        face.__dict__["_inequalities"] = (*inequalities, *equalities)
        return face

    def faces(self) -> list["Cone"]:
        """Every face, the cone itself and its minimal face included, sorted
        by key: one ``Cone`` per mask of ``_face_masks``."""
        return sorted(map(self._face, self._face_masks()), key=Cone.key)

    def __repr__(self):
        lin, rays = self._canonical
        return f"Cone(rank={self.ambient_rank}, rays={list(rays)}, lines={list(lin)})"


def dual_cone(cone: Cone) -> Cone:
    """All vectors pairing nonnegatively with the cone; double dual is identity."""
    return Cone._from_vform(cone.ambient_rank, *cone._dual)


def image_cone(cone: Cone, p: IntMatrix) -> Cone:
    """Image under an integer linear map, with primitive regenerated rays."""
    if p.cols != cone.ambient_rank:
        raise InputError("projection has the wrong number of columns")
    return Cone(p.rows, (p.apply(g) for g in cone.generators))


def _tight_rays(rays, masks, tight: int) -> tuple[tuple[int, ...], ...]:
    """The rays whose zero mask holds the bit mask ``tight``: with the
    lineality space, they span the face tight on those halfspaces."""
    return tuple(r for r, m in zip(rays, masks) if m & tight == tight)


def _is_face_of(cone: Cone, lines: int, rays, tight: int) -> bool:
    """Whether a cone inside ``cone`` is a face of it, from the dimension of
    its lineality space, its canonical rays and the bit mask of the
    halfspaces of ``cone`` tight on it.

    It is one when it has the lineality space of ``cone`` and its rays are
    exactly the rays of ``cone`` whose zero mask holds ``tight``: those span
    the smallest face of ``cone`` that holds it.
    """
    lineality, cone_rays, masks, _ = cone._state
    return lines == len(lineality) and rays == _tight_rays(cone_rays, masks, tight)


def _spans_a_face(cone: Cone, rays) -> bool:
    """Whether some of the extreme rays of ``cone``, sorted, span a face of
    it with its lineality space: the halfspaces tight on them are the AND of
    their zero masks (all of them for no ray)."""
    tight = reduce(operator.and_, map(cone._ray_masks.__getitem__, rays), -1)
    return _is_face_of(cone, len(cone.lineality_basis), rays, tight)


def is_face(face: Cone, cone: Cone) -> bool:
    """True when ``face`` equals the part of ``cone`` tight on some halfspaces.

    Read off the zero masks that the double description of ``cone`` keeps,
    with no dot product and no double description of ``face``.  A face of a
    cone has the cone's lineality space, whose sorted basis is canonical for
    the span (see ``_dd_from_halfspaces``), and some of its extreme rays, a
    face of a face being a face (Cox-Little-Schenck, *Toric Varieties*,
    2011, §1.2).  Such a cone is a face exactly when its rays are the rays of
    ``cone`` whose masks hold the AND of their masks (``_spans_a_face``).
    Cones of different ambient rank are an input error.
    """
    _same_rank(face, cone)
    return (
        face.lineality_basis == cone.lineality_basis
        and cone._ray_masks.keys() >= set(face.rays)
        and _spans_a_face(cone, face.rays)
    )


def _meets_in_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether the intersection of two cones is a face of both.

    First the separation argument, from the zero masks alone: take the
    halfspaces that ``c1`` processed and whose negatives ``c2`` processed.
    The cones lie on opposite sides of each of those hyperplanes, so their
    meet lies in all of them, and it is the meet F1 & F2 of the face of each
    cone tight on all of them (each cone itself when there is none).  This
    is the easy half of the separation lemma, which says that two cones
    meeting in a common face lie on opposite sides of a hyperplane that cuts
    that face out of each (Fulton, *Introduction to Toric Varieties*, 1993,
    §1.2; Cox-Little-Schenck, *Toric Varieties*, 2011, Lemma 1.2.13).
    When the cones have one lineality space and the rays of one of those
    faces, say F1, are some of the other's, F1 lies in F2, so the meet is
    F1: a face of ``c1``, and a face of ``c2`` exactly when its rays span one
    (``_spans_a_face``; F1 = F2 is the case where they agree).
    Otherwise, a T-junction or an overlap for one, the meet is built: its
    description, that of ``c1`` resumed with the halfspaces of ``c2`` and
    built into no ``Cone``, processed the halfspaces of ``c1`` and then those
    of ``c2``, so the AND of its rays' zero masks holds, in its low bits, the
    halfspaces of ``c1`` tight on the meet and, above them, those of ``c2``:
    the face tests take no dot product.
    """
    _, rays1, masks1, processed1 = c1._state
    _, rays2, masks2, processed2 = c2._state
    opposite = {h: 1 << j for j, h in enumerate(_negatives(processed2))}
    cut1 = cut2 = 0  # bit masks of the halfspaces of c1, and of c2, that the other cone processed negated
    for i, h in enumerate(processed1):
        if h in opposite:
            cut1 |= 1 << i
            cut2 |= opposite[h]
    face1, face2 = _tight_rays(rays1, masks1, cut1), _tight_rays(rays2, masks2, cut2)
    if c1.lineality_basis == c2.lineality_basis:
        if set(face2).issuperset(face1):
            return _spans_a_face(c2, face1)
        if set(face1).issuperset(face2):
            return _spans_a_face(c1, face2)
    lineality, rays, masks, _ = _dd_from_halfspaces(c1.ambient_rank, processed2, c1._state)
    tight, n1 = reduce(operator.and_, masks, -1), len(processed1)
    return _is_face_of(c1, len(lineality), rays, tight & ((1 << n1) - 1)) and _is_face_of(
        c2, len(lineality), rays, tight >> n1
    )


class Fan(Record):
    """Finite collection of cones in one ambient rank.

    Building one checks nothing, so a ``Fan`` need not be a fan:
    ``schemas.load_chow`` makes one from any document, overlapping cones
    included.  ``validate`` checks that every two cones meet in a common
    face, and the refinement runs it on its output; closure under faces is
    not required, so a fan may list its maximal cones alone.
    """

    _fields = ("ambient_rank", "cones")

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        """Cones inside no other cone, in ``cones`` order; equal cones count
        once (the first).

        The cones are taken largest dimension first, and each is tested only
        against the maximal cones kept so far, which suffices as containment
        is transitive.  A kept cone that a new one contains has its dimension,
        so it is strictly smaller and is dropped.  ``common_refinement`` gives
        its fan its cells instead, in the same order (see there).
        """
        cones = self.cones
        kept: list[int] = []
        for i in sorted(range(len(cones)), key=lambda i: -cones[i].dim):
            c = cones[i]
            if any(cones[k].contains(c) for k in kept):
                continue
            kept = [k for k in kept if cones[k].dim != c.dim or not c.contains(cones[k])]
            kept.append(i)
        return tuple(cones[i] for i in sorted(kept))

    def validate(self):
        """Every two cones meet in a common face.

        Checked as: every two maximal cones meet in a common face, and every
        cone is a face of a maximal cone.  If faces t1, t2 lie in maximal
        s1, s2, then t1 & t2 is a face of s1 & s2 and so of both.  Both
        checks read the zero masks of the maximal cones' double descriptions
        and take no dot product (see ``is_face`` and
        ``_meets_in_common_face``), and both run in full on the cells that
        ``common_refinement`` gives as maximal cones.
        """
        maximal = self.maximal_cones
        if not (
            all(_meets_in_common_face(c1, c2) for c1, c2 in itertools.combinations(maximal, 2))
            and all(any(is_face(c, m) for m in maximal) for c in self.cones)
        ):
            raise InputError("cone intersection is not a common face")


def common_refinement(cones) -> Fan:
    """A common refinement of the full-dimensional cones of a family that is a fan.

    Inputs of lower dimension are dropped before the split: they can hold no
    cell, so they cut none.  Split: the whole space is split by the other
    inputs' facet hyperplanes one at a time; a cell on one closed side of a
    hyperplane stays whole, so only nonempty cells are built, each by
    resuming its parent's description with one cut, and each keeps its sign
    vector and the inputs it may still lie in.  A full-dimensional cell lies
    in a full-dimensional input exactly when its sign on each facet
    hyperplane of the input is the side the input lies on, so a side that
    leaves no such input is neither cut nor kept, and the inputs left are
    the cell's owners.  Merge: two cells in the same inputs whose sign
    vectors differ in one place become the cell of the relaxed vector, their
    union, if it meets every other cell in a common face; the scan restarts
    after each merge.  So the cells stay a fan, and each lies in exactly the
    inputs whose interior it meets.  It need not be coarsest, and no
    coarsest one need exist: beside the cone spanned by (1, 1) and (3, 1),
    the half-plane {x >= 3y} must be cut along some ray inside it, and no cut
    is coarser than another.  The cells are closed under faces, and the
    fan's maximal cones are the cells: none lies in another, as a
    full-dimensional face of a cone is the cone itself, and ``validate``
    checks that every other cone is a face of one.  The faces are read off
    each cell as ray masks and deduplicated by lineality basis and rays, both
    canonical, before any is built, so each is built once; which cell builds
    it changes no output, as the face tests read only those two.

    A merged cell keeps the cuts of its two halves but those along the
    relaxed hyperplane h, and they cut out the union.  Every cut of a cell is
    one of the signs of its vector, which hold on the cell, so a cut of one
    half other than +-h is a sign of both vectors and holds on both halves.
    Conversely a point that satisfies the kept cuts and lies on the side of h
    of one half satisfies every cut of that half (the half has no cut on the
    other side of h), so it lies in that half.  So the merged cell is the
    union, with the key and generators it had when it was cut out by all
    the signs of its vector.
    """
    cones = list(cones)
    if not cones:
        raise InputError("need at least one cone")
    rank = cones[0].ambient_rank
    if any(c.ambient_rank != rank for c in cones):
        raise InputError("mixed ambient ranks")
    cones = [c for c in cones if c.dim == rank]
    outside: dict[tuple[int, ...], int] = {}  # cut normal -> bit mask of the inputs beyond it
    for i, cone in enumerate(cones):
        for n in _negatives(cone.facet_normals()):
            outside[n] = outside.get(n, 0) | 1 << i
    hyperplanes = sorted({max(n, tuple(-x for x in n)) for n in outside})

    everyone = (1 << len(cones)) - 1
    # (sign vector, cell, the inputs it may lie in); with no input, no cell
    split = [((), Cone.full_space(rank), everyone)] if everyone else []
    for h in hyperplanes:
        out = []
        for signs, cell, owners in split:
            vals = [_dot(h, r) for r in cell.rays]
            whole = not any(_dot(h, l) for l in cell.lineality_basis) and not min(vals) < 0 < max(vals)
            for s in ((1 if max(vals) > 0 else -1,) if whole else (1, -1)):
                cut = tuple(s * x for x in h)
                if left := owners & ~outside.get(cut, 0):
                    out.append((signs + (s,), cell if whole else cell._cut([cut]), left))
        split = out

    cell_of = {frozenset(enumerate(signs)): cell for signs, cell, _ in split}
    cells = {frozenset(enumerate(signs)): owners for signs, _, owners in split}  # sign pattern -> owner mask

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
                    # the cuts of both halves but those along hyperplane i
                    along = {hyperplanes[i], tuple(-x for x in hyperplanes[i])}
                    halves = dict.fromkeys((*cell_of[pattern]._inequalities, *cell_of[twin]._inequalities))
                    cuts = [h for h in halves if h not in along]
                    cell_of[relaxed] = Cone.from_halfspaces(rank, cuts)
                if all(meets_properly(relaxed, q) for q in cells if q != pattern and q != twin):
                    return pattern, twin, relaxed
        return None

    while (step := next_merge()) is not None:
        pattern, twin, relaxed = step
        cells[relaxed] = cells.pop(pattern)
        del cells[twin]

    closed = {}  # (lineality basis, rays) of each face -> a cell and the face's ray mask in it
    for cell in map(cell_of.__getitem__, cells):
        for face in cell._face_masks():
            closed.setdefault((cell.lineality_basis, _rays_in(cell.rays, face)), (cell, face))
    fan = Fan(rank, tuple(sorted((cell._face(face) for cell, face in closed.values()), key=Cone.key)))
    fan.__dict__["maximal_cones"] = tuple(sorted((cell_of[pattern] for pattern in cells), key=Cone.key))
    try:
        fan.validate()
    except InputError as exc:
        raise InternalError(f"the refinement is not a fan: {exc}") from None
    return fan
