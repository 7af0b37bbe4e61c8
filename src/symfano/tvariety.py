"""Combinatorial model of a complexity-one torus variety.

The variety holds its quotient data itself: a ``Fiber`` per marked point of
the quotient line, with the invariant divisors over it and their generic
stabilizer orders, and the names of the horizontal divisors.  Every unmarked
point implicitly carries a single divisor of order 1, and an empty fiber
records a point missing from the image of the quotient map.  On top sit the
boundary pair, the anticanonical lift and its threshold bound, and the existence verdict: the symmetry test,
then Tian's criterion glct > dim/(dim+1), which the counting conditions on
the fibers decide, since each forces glct = 1 and without one glct <= 1/2.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count

from .curvepair import LctResult, MarkedCurvePair, NEG_INFINITY, finite_degree, lct_g
from .errors import (
    DegreeError,
    InputError,
    InternalError,
    MorphismHypothesisViolated,
    NotFano,
    NotInvariant,
    NotLogTerminal,
    NotSymmetric,
    PreconditionError,
)
from .exact import ProjPoint, Record
from .groups import (
    LatticeAutGroup,
    MoebiusElement,
    MoebiusGroup,
    Orbit,
    closure,
    has_global_fixed_point,
    is_symmetric,
    orbit_of,
)
from .rationals import ONE, Q, TWO, ZERO, rat_str


class VerticalDivisor(Record):
    """Invariant divisor in one fiber with its generic stabilizer order."""

    __slots__ = _fields = ("name", "order")

    def __init__(self, name: str, order: int):
        if order < 1:
            raise InputError(f"divisor {name}: order must be >= 1")
        super().__init__(name, order)


class Fiber(Record):
    """Marked point with its vertical divisors; an empty list is a declared
    gap in the image of the quotient map."""

    __slots__ = _fields = ("point", "divisors")

    @property
    def declared_empty(self) -> bool:
        return not self.divisors

    @property
    def multiplicity(self) -> int:
        return max((d.order for d in self.divisors), default=0)


class DeclaredAction(Record):
    """Fallback symmetry input: how each generator permutes the marked fibers,
    plus whether the induced group on the line is cyclic (trivial counts as
    cyclic)."""

    __slots__ = _fields = ("permutations", "induced_cyclic")


class CxOneVariety(Record):
    """Complexity-one torus variety given combinatorially.

    ``fibers`` is a tuple of ``Fiber`` over pairwise distinct points, and
    ``horizontals`` a tuple of the horizontal divisors' names.  Either
    symmetry input yields ``permutations``: for each generator, the index of
    the fiber it sends each marked fiber to.  It and the closed groups
    ``moebius_group`` and ``marked_permutation_group``, each computed once,
    are derived from the fields, so they take no part in equality or the repr.
    """

    _fields = (
        "name", "dim", "fibers", "horizontals", "lattice",
        "moebius_generators", "declared", "fano", "log_terminal",
    )

    def __init__(
        self,
        name: str,
        dim: int,
        fibers: tuple[Fiber, ...],
        horizontals: tuple[str, ...],
        lattice: LatticeAutGroup,
        moebius_generators: tuple[MoebiusElement, ...] | None = None,
        declared: DeclaredAction | None = None,
        fano: bool = True,
        log_terminal: bool = True,
    ):
        super().__init__(
            name, dim, fibers, horizontals, lattice, moebius_generators, declared, fano, log_terminal
        )
        if self.dim < 2:
            raise InputError("dim must be >= 2")
        if self.lattice.rank != self.dim - 1:
            raise InputError(f"lattice rank must be dim - 1 = {self.dim - 1}")
        fibs = self.fibers
        if len({f.point for f in fibs}) != len(fibs):
            raise InputError("marked points must be pairwise distinct")
        names = [d.name for f in fibs for d in f.divisors] + list(self.horizontals)
        if len(set(names)) != len(names):
            raise InputError("divisor names must be globally unique")
        if (self.moebius_generators is None) == (self.declared is None):
            raise InputError("give either Moebius generators or a declared action")
        if self.explicit_action:
            if len(self.moebius_generators) != len(self.lattice.generators):
                raise InputError("Moebius generators must pair with lattice generators")
            perms = tuple(self._induced_permutation(g) for g in self.moebius_generators)
        else:
            if len(self.declared.permutations) != len(self.lattice.generators):
                raise InputError("permutations must pair with lattice generators")
            perms = self.declared.permutations
        for perm in perms:
            if sorted(perm) != list(range(len(fibs))):
                raise InputError("declared permutation is not a bijection of the fibers")
            for f, j in zip(fibs, perm):
                if f.multiplicity != fibs[j].multiplicity:
                    raise NotInvariant(
                        f"{self.name}: fiber multiplicity not preserved at {f.point}"
                    )
        object.__setattr__(self, "permutations", perms)

    def _induced_permutation(self, g: MoebiusElement) -> tuple[int, ...]:
        index = {f.point: i for i, f in enumerate(self.fibers)}
        perm = []
        for p in index:
            image = g.apply(p)
            if image not in index:
                raise NotInvariant(
                    f"{self.name}: generator sends marked point {p} to unmarked {image}"
                )
            perm.append(index[image])
        return tuple(perm)

    @property
    def explicit_action(self) -> bool:
        return self.moebius_generators is not None

    @cached_property
    def moebius_group(self) -> MoebiusGroup:
        if not self.explicit_action:
            raise InputError("no explicit induced action was given")
        return closure(self.moebius_generators)

    def induced_cyclic(self) -> bool:
        """Whether the induced group on the line is trivial or cyclic, that is
        (Beauville) whether it has a global fixed point."""
        if self.explicit_action:
            return has_global_fixed_point(self.moebius_group)
        return self.declared.induced_cyclic

    @cached_property
    def marked_permutation_group(self) -> tuple[tuple[int, ...], ...]:
        """Closure of the generators' permutations of the marked fibers."""
        n = len(self.fibers)
        ident = tuple(range(n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.permutations:
                    q = tuple(g[p[i]] for i in range(n))
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# Fiber bookkeeping
# ---------------------------------------------------------------------------


def non_reduced_fibers(variety: CxOneVariety) -> tuple[ProjPoint, ...]:
    pts = [f.point for f in variety.fibers if f.multiplicity > 1]
    return tuple(sorted(pts, key=ProjPoint.sort_key))


def boundary(variety: CxOneVariety) -> MarkedCurvePair:
    """Boundary pair (m-1)/m at each marked point, -infinity on declared gaps.

    Points of multiplicity 1 contribute coefficient 0 and are omitted.
    """
    entries = []
    for f in variety.fibers:
        if f.declared_empty:
            entries.append((f.point, NEG_INFINITY))
        else:
            m = f.multiplicity
            if m > 1:
                entries.append((f.point, Q(m - 1) / Q(m)))
    entries.sort(key=lambda pc: pc[0].sort_key())
    return MarkedCurvePair(entries)


def anticanonical_lift(variety: CxOneVariety, q_y: dict[ProjPoint, Q]) -> dict[str, Q]:
    """Invariant anticanonical divisor lifted from a degree-2 divisor on the line.

    A divisor of order m over p gets m*q_y(p) + 1 - m, a horizontal divisor
    1, and the fiber over an unmarked p, named ``fiber(p)``, gets q_y(p);
    zero coefficients are left out.  Effective exactly when q_y dominates the
    boundary coefficientwise.
    """
    if sum(q_y.values(), ZERO) != 2:
        raise DegreeError("anticanonical divisor on the line must have degree 2")
    if variety.explicit_action:
        for g in variety.moebius_group:
            for p, c in q_y.items():
                if q_y.get(g.apply(p), ZERO) != c:
                    raise NotInvariant("divisor is not invariant under the induced group")
    return _lift(variety, q_y)


def _lift(variety: CxOneVariety, q_y: dict[ProjPoint, Q]) -> dict[str, Q]:
    out = {}
    for f in variety.fibers:
        c = q_y.get(f.point, ZERO)
        for d in f.divisors:
            out[d.name] = d.order * c + 1 - d.order
    for h in variety.horizontals:
        out[h] = ONE
    marked = {f.point for f in variety.fibers}
    for p, c in q_y.items():
        if p not in marked:
            out[f"fiber({p})"] = c
    return {name: c for name, c in out.items() if c}


# ---------------------------------------------------------------------------
# Thresholds and the existence verdict
# ---------------------------------------------------------------------------


class GlctInfo(Record):
    __slots__ = _fields = ("value", "is_lower_bound", "witness")


class KEVerdict(Record):
    __slots__ = _fields = ("certified", "route", "details", "warnings")


class VarietyAnalysis(Record):
    """Every quantity of the verdict pipeline, each computed once.  A stopped
    ``glct`` or ``verdict`` holds its PreconditionError; ``quotient_lct`` is the
    uncapped boundary threshold, present when an explicit action gave the glct,
    and ``divisor`` the invariant D ~ -K_X bounding it from above, present when
    that threshold is finite."""

    __slots__ = _fields = (
        "symmetric", "boundary", "non_reduced", "quotient_lct", "divisor", "glct", "verdict",
    )


def _check_verdict_preconditions(variety: CxOneVariety, symmetric: bool):
    if not symmetric:
        raise NotSymmetric(f"{variety.name}: the lattice action fixes a nonzero vector")
    if not variety.fano:
        raise NotFano(f"{variety.name} is not declared Fano")
    if not variety.log_terminal:
        raise NotLogTerminal(f"{variety.name} is not declared log terminal")


def analyze(variety: CxOneVariety) -> VarietyAnalysis:
    """Symmetry, boundary, non-reduced fibers, thresholds and verdict in one pass."""
    symmetric = is_symmetric(variety.lattice)
    b = boundary(variety)
    nr = non_reduced_fibers(variety)
    try:
        _check_verdict_preconditions(variety, symmetric)
    except PreconditionError as exc:
        return VarietyAnalysis(symmetric, b, nr, None, None, exc, exc)
    quotient_lct = divisor = None
    if b.has_neg_infinity:
        info = MorphismHypothesisViolated(
            f"{variety.name}: a declared-empty fiber gives a -infinity boundary"
        )
    elif variety.explicit_action:
        # the validated action makes b invariant, so lct_g raises nothing here
        quotient_lct = lct_g(b, variety.moebius_group)
        witness = None if quotient_lct.witness is None else quotient_lct.witness.describe()
        info = GlctInfo(quotient_lct.capped_at_one(), False, witness)
        if not quotient_lct.is_infinite:
            divisor = _tight_divisor(variety, b, quotient_lct)
    else:
        info = _declared_glct(variety, b)
    verdict = _verdict(variety, nr, info)
    return VarietyAnalysis(symmetric, b, nr, quotient_lct, divisor, info, verdict)


def _tight_divisor(variety: CxOneVariety, b: MarkedCurvePair, res: LctResult) -> dict[str, Q]:
    """Lift of q_Y = B + f*O, where O is the tight class of size s and
    f = (2 - deg B)/s, checked against the threshold it bounds.

    Each prime divisor E of D bounds lct(X, D) <= 1/a_E by its valuation, so
    min(1, 1/max a_E) must equal the capped quotient value.  q_Y is invariant
    because B is (``lct_g`` checked it) and O is an orbit, so the public
    lift's re-check is skipped.
    """
    group = variety.moebius_group
    orbit = res.witness.orbit or _free_orbit(variety, group)
    f = (TWO - finite_degree(b)) / Q(res.witness.size)
    q_y = dict(b)
    for p in orbit.points:
        q_y[p] = q_y.get(p, ZERO) + f
    divisor = _lift(variety, q_y)
    top = max(divisor.values(), default=ZERO)
    bound = ONE / top if top > 1 else ONE
    if bound != res.capped_at_one():
        raise InternalError(
            f"{variety.name}: divisor bound {rat_str(bound)} misses the threshold "
            f"{rat_str(res.capped_at_one())}"
        )
    return divisor


def _free_orbit(variety: CxOneVariety, group: MoebiusGroup) -> Orbit:
    """Orbit of the first t = 0, 1, 2, ... with |G| points, none of them marked."""
    marked = {f.point for f in variety.fibers}
    for t in count():
        orbit = orbit_of(group, ProjPoint.from_affine(t))
        if orbit.size == group.order and marked.isdisjoint(orbit.points):
            return orbit


def _result(value):
    if isinstance(value, PreconditionError):
        raise value
    return value


def glct_info(variety: CxOneVariety) -> GlctInfo:
    """Global log canonical threshold, capped at 1.

    With an explicit induced action this is exact; with a declared action only
    the marked orbits are visible, so the untouched orbit classes are bounded
    below by the smallest size they could have (1 for a cyclic group, else 2)
    and the result is a certified lower bound.
    """
    return _result(analyze(variety).glct)


def glct(variety: CxOneVariety) -> Q:
    return glct_info(variety).value


def ke_verdict(variety: CxOneVariety) -> KEVerdict:
    """Existence verdict for the invariant Einstein metric.

    Tian's criterion glct > dim/(dim+1) certifies.  Its routes, in order:
    three or more non-reduced fibers; exactly two swapped by the symmetry; a
    fixed-point-free induced action.  Each forces glct = 1.  Without one, the
    non-reduced fibers are at most two points fixed by a cyclic action, whose
    minimands (1 - b_p)/(2 - deg) sum to 1 (one fiber of multiplicity m gives
    1/(m + 1), none gives 1/2), so glct <= 1/2 < 2/3 <= dim/(dim+1).  A False
    verdict is inconclusive, never a disproof.
    """
    return _result(analyze(variety).verdict)


def _declared_glct(variety: CxOneVariety, b: MarkedCurvePair) -> GlctInfo:
    deg = finite_degree(b)
    if deg >= 2:
        return GlctInfo(ONE, False, None)
    free = TWO - deg
    fibs = variety.fibers
    perms = variety.marked_permutation_group
    candidates = []
    # each declared orbit once, named by its first fiber; a fiber of
    # multiplicity m has coefficient (m - 1)/m, so 1 - coeff = 1/m
    for orbit in dict.fromkeys(tuple(sorted({p[i] for p in perms})) for i in range(len(fibs))):
        f = fibs[orbit[0]]
        value = Q(len(orbit)) / Q(f.multiplicity) / free
        candidates.append((value, f"declared orbit of {f.point} (size {len(orbit)})"))
    floor_size = 1 if variety.induced_cyclic() else 2
    candidates.append((Q(floor_size) / free, f"possible unseen orbit of size {floor_size}"))
    best, witness = min(candidates, key=lambda c: c[0])  # first minimum wins ties
    return GlctInfo(min(best, ONE), True, witness)


def _swapped_pair(variety: CxOneVariety, p: ProjPoint, q: ProjPoint) -> bool:
    points = [f.point for f in variety.fibers]
    i, j = points.index(p), points.index(q)
    return any(perm[i] == j for perm in variety.marked_permutation_group)


def _verdict(variety: CxOneVariety, nr, info) -> KEVerdict | PreconditionError:
    """Verdict of a variety whose preconditions hold, from its analysed parts."""
    warnings: list[str] = []
    details: dict = {
        "symmetric": True,
        "non_reduced_fibers": [str(p) for p in nr],
        "non_reduced_count": len(nr),
        "certification_threshold": f"{variety.dim}/{variety.dim + 1}",
    }
    route = None
    if len(nr) >= 3:
        route = "three-non-reduced-fibers"
    elif len(nr) == 2 and _swapped_pair(variety, nr[0], nr[1]):
        route = "swapped-pair"
    elif not variety.induced_cyclic():
        route = "fixed-point-free"

    if isinstance(info, GlctInfo):
        details["glct"] = rat_str(info.value)
        details["glct_is_lower_bound"] = info.is_lower_bound
        if info.witness is not None:
            details["glct_witness"] = info.witness
        if info.is_lower_bound:
            warnings.append(
                "induced action given only as a declared permutation: the threshold "
                "is a lower bound"
            )
            if route is None:
                warnings.append("declared-action lower bound did not reach the threshold")
    elif route is None:
        return MorphismHypothesisViolated(
            f"{variety.name}: no counting route applies to a boundary with -infinity entries"
        )
    return KEVerdict(route is not None, route, details, tuple(warnings))
