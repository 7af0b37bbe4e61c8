"""Seeded randomized property suites with independent oracles.

Each suite rechecks one load-bearing identity against a computation that does
not share code with the path under test: matrix identities are re-multiplied,
thresholds are recomputed divisor-by-divisor from the log canonicity
definition, and stability results are replayed against the exhaustive
candidate set of one-parameter subgroups.  The CLI exposes this as
``symfano selftest``; the pytest acceptance suite runs the same functions.
"""

from __future__ import annotations

import math
import random
import zlib

from .curvepair import MarkedCurvePair, finite_degree, is_neg_infinity, lct_g
from .errors import InputError
from .exact import IntMatrix, PositiveCombination, ProjPoint, smith_normal_form
from .groups import MoebiusElement, MoebiusGroup, Orbit, closure, exceptional_orbits, orbit_of
from .quotients import WeightMatrix, is_polystable, is_polystable_oracle, polystable_locus, verify_stability_cert
from .rationals import ONE, Q, TWO, ZERO, rat
from .tvariety import (
    CxOneVariety,
    Fiber,
    LatticeAutGroup,
    VerticalDivisor,
    anticanonical_lift,
    boundary,
)

# finite groups of projective transformations over Q, by generator sets: one
# of each of the nine types that PGL2(Q) has, C2 with three kinds of fixed
# points
_GROUP_GENERATORS = (
    (),                                             # trivial
    ([[0, 1], [1, 0]],),                            # involution fixing 1, -1
    ([[-1, 0], [0, 1]],),                           # involution fixing 0, infinity
    ([[2, 3], [1, -2]],),                           # involution with irrational fixed points
    ([[-1, -1], [1, 0]],),                          # order 3 rotating 0, infinity, -1
    ([[1, -1], [1, 1]],),                           # order 4
    ([[2, -1], [1, 1]],),                           # order 6
    ([[-1, -1], [1, 0]], [[1, 0], [-1, -1]]),       # permutations of 0, -1, infinity
    ([[0, 1], [1, 0]], [[-1, 0], [0, 1]]),          # Klein four-group
    ([[1, -1], [1, 1]], [[-1, 0], [0, 1]]),         # dihedral of order 8
    ([[2, -1], [1, 1]], [[0, 1], [1, 0]]),          # dihedral of order 12
)


def _group_pool() -> list[MoebiusGroup]:
    return [closure([MoebiusElement(g) for g in gens]) for gens in _GROUP_GENERATORS]


def _conjugate_group(group: MoebiusGroup, h: MoebiusElement) -> MoebiusGroup:
    hinv = h.inverse()
    mapped = tuple(sorted((h * g * hinv for g in group), key=MoebiusElement.sort_key))
    return MoebiusGroup(mapped)


def _random_rational(rng: random.Random) -> Q:
    return rat(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))


def sl2z(rng: random.Random) -> MoebiusElement:
    """A product of three random elementary matrices of SL2(Z)."""
    m = [[1, 0], [0, 1]]
    for _ in range(3):
        k = rng.randint(-3, 3)
        e = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        m = [[sum(m[i][t] * e[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    return MoebiusElement(m)


def gl2q(rng: random.Random) -> MoebiusElement:
    """A random invertible matrix of small rationals."""
    while True:
        m = [[Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            return MoebiusElement(m)


def _random_invariant_pair(rng: random.Random, group: MoebiusGroup):
    """Random pair on at most three orbits: orbit-closed support, constant coefficients, degree < 2."""
    marked: dict[ProjPoint, Q] = {}
    degree = ZERO
    exceptional = exceptional_orbits(group)
    for _ in range(rng.randint(0, 3)):
        if exceptional and rng.random() < 0.4:
            orbit = rng.choice(exceptional)
        else:
            base = ProjPoint.infinity() if rng.random() < 0.1 else ProjPoint.from_affine(
                _random_rational(rng)
            )
            orbit = orbit_of(group, base)
        if any(p in marked for p in orbit.points):
            continue
        coeff = rat(rng.randint(0, 4), 4)
        if degree + coeff * orbit.size >= 2:
            continue
        for p in orbit.points:
            marked[p] = coeff
        degree += coeff * orbit.size
    items = sorted(marked.items(), key=lambda pc: pc[0].sort_key())
    return MarkedCurvePair(items)


def _distinct_orbits(orbits: list[Orbit]) -> list[Orbit]:
    """The orbits in their order, each once."""
    distinct: dict[tuple[ProjPoint, ...], Orbit] = {}
    for orbit in orbits:
        distinct.setdefault(orbit.points, orbit)
    return list(distinct.values())


def _divisor_threshold(pair: MarkedCurvePair, divisor: dict[ProjPoint, Q]) -> Q | None:
    """Largest t with every coefficient of (boundary + t * divisor) at most 1."""
    best = None
    for p, mass in divisor.items():
        if mass == 0:
            continue
        allowed = (ONE - pair.coefficient(p)) / mass
        if best is None or allowed < best:
            best = allowed
    return best


def lct_oracle(pair: MarkedCurvePair, group: MoebiusGroup, rng: random.Random) -> Q | None:
    """Threshold by brute force over invariant divisors, from the definition.

    Enumerates every equidistributed concentration on a marked orbit, on an
    orbit with nontrivial stabilizer, and on sampled free orbits, plus random
    two-orbit mixtures; each divisor is scored directly by the pointwise
    log canonicity bound, and the infimum over divisors is returned.  None
    means the boundary already has degree >= 2 and nothing constrains.
    """
    degree = finite_degree(pair)
    if degree >= 2:
        return None
    total = TWO - degree
    orbits = _distinct_orbits([orbit_of(group, p) for p, _ in pair] + exceptional_orbits(group))
    busy = {p for orbit in orbits for p in orbit.points}
    free_orbits = []
    while len(free_orbits) < 3:
        p = ProjPoint.from_affine(rat(rng.randint(7, 40)))
        if p in busy:
            continue
        orbit = orbit_of(group, p)
        busy.update(orbit.points)
        free_orbits.append(orbit)
    orbits.extend(free_orbits)

    divisors = []
    for orbit in orbits:
        share = total / Q(orbit.size)
        divisors.append({p: share for p in orbit.points})
    for _ in range(8):
        a, b = rng.sample(range(len(orbits)), 2) if len(orbits) >= 2 else (0, 0)
        if a == b:
            continue
        cut = rat(rng.randint(1, 3), 4)
        mix: dict[ProjPoint, Q] = {}
        for p in orbits[a].points:
            mix[p] = total * cut / Q(orbits[a].size)
        for p in orbits[b].points:
            mix[p] = mix.get(p, ZERO) + total * (1 - cut) / Q(orbits[b].size)
        divisors.append(mix)

    best = None
    for divisor in divisors:
        t = _divisor_threshold(pair, divisor)
        if t is not None and (best is None or t < best):
            best = t
    return best


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_snf_identity(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for k in range(cases):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        u, d, v = smith_normal_form(a)
        ok = u * a * v == d and u.is_unimodular() and v.is_unimodular()
        diag = [d[i, i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            ok = ok and diag[i] >= 0
            ok = ok and ((diag[i + 1] % diag[i] == 0) if diag[i] else diag[i + 1] == 0)
        if not ok:
            failures.append(f"case {k}: {a!r}")
    return failures


def _random_variety(rng: random.Random) -> CxOneVariety:
    """A threefold under a pool group: fibers on a random union of orbits,
    one multiplicity pattern per orbit, and 0-2 horizontal divisors."""
    moebius = tuple(MoebiusElement(g) for g in rng.choice(_GROUP_GENERATORS))
    moebius = moebius or (MoebiusElement.identity(),)
    group = closure(moebius)
    candidates = exceptional_orbits(group)
    candidates += [orbit_of(group, ProjPoint.from_affine(rat(t))) for t in rng.sample(range(-5, 6), 3)]
    candidates.append(orbit_of(group, ProjPoint.infinity()))
    fibers = []
    for orbit in rng.sample(candidates, rng.randint(0, 4)):
        if any(f.point in orbit.points for f in fibers):
            continue
        orders = rng.choice(((1,), (2,), (3,), (1, 2), (2, 4)))
        for p in orbit.points:
            base = 2 * len(fibers)
            fibers.append(Fiber(p, tuple(VerticalDivisor(f"d{base + i}", o) for i, o in enumerate(orders))))
    horizontals = tuple(f"h{i}" for i in range(rng.randint(0, 2)))
    return CxOneVariety(
        name="random", dim=3, fibers=tuple(fibers), horizontals=horizontals,
        lattice=LatticeAutGroup(2, [[[-1, 0], [0, -1]]] * len(moebius)), moebius_generators=moebius,
    )


def unimodular(rng: random.Random, rank: int) -> list[list[int]]:
    """Three steps on the identity, each negating a row or adding another row
    to it with a sign drawn per entry: the determinant is odd, but not always
    +-1 (about one draw in ten in ranks 2-5).  The corpus draws its ``chow``
    bases and ``lattice`` generators with it as it is."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if i != j and rng.random() < 0.7:
            u[i] = [a + rng.choice((1, -1)) * b for a, b in zip(u[i], u[j])]
        else:
            u[i] = [-a for a in u[i]]
    return u


def apply(m, v) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def projective_space_fan(rank: int) -> list[list[list[int]]]:
    """The fan of P^rank: the cones on all but one of e_1..e_rank, -(e_1+..+e_rank)."""
    rays = [[int(i == j) for j in range(rank)] for i in range(rank)] + [[-1] * rank]
    return [[r for k, r in enumerate(rays) if k != skip] for skip in range(rank + 1)]


def product_fan(*ranks: int) -> list[list[list[int]]]:
    """The fan of P^a x P^b x ... for ``ranks`` a, b, ...: each cone is one
    cone of each factor's fan, the factors in consecutive coordinates.  A
    factor of rank 0 is a point."""
    total, offset, cones = sum(ranks), 0, [[]]
    for a in ranks:
        pad = [0] * offset, [0] * (total - offset - a)
        cones = [c + [pad[0] + r + pad[1] for r in f] for c in cones for f in projective_space_fan(a)]
        offset += a
    return cones


def _unimodular_basis(rng: random.Random, rank: int) -> list[list[int]]:
    """The first draw of ``unimodular`` whose determinant is +-1."""
    while True:
        u = unimodular(rng, rank)
        if IntMatrix(u).is_unimodular():
            return u


def _random_complete_fan(rng: random.Random, rank: int) -> list[list[list[int]]]:
    """The maximal cones of a complete simplicial fan in ``rank`` >= 2, each as its
    integer rays, as a ``chow`` document holds them: P^rank, (P^1)^rank or
    P^2 x P^(rank-2), star-subdivided 0-3 times, in a random basis.

    A star subdivision at a primitive v in [-2, 2]^rank replaces each maximal
    cone that holds v by the full-dimensional cones that swap one of its rays
    for v; the fan stays complete and simplicial."""
    from .polyhedral import Cone

    cones = product_fan(*rng.choice(((rank,), (1,) * rank, (2, rank - 2))))
    for _ in range(rng.randint(0, 3)):
        v = [0]
        while math.gcd(*v) != 1:
            v = [rng.randint(-2, 2) for _ in range(rank)]
        star = []
        for cone in cones:
            held = Cone(rank, cone).contains(Cone(rank, [v]))
            swaps = [cone[:k] + [v] + cone[k + 1:] for k in range(rank)] if held else [cone]
            star += [s for s in swaps if Cone(rank, s).dim == rank]
        cones = star
    basis = _unimodular_basis(rng, rank)
    return [[apply(basis, r) for r in cone] for cone in cones]


def _random_surjection(rng: random.Random, rank: int, target: int) -> list[list[int]]:
    """An integer projection from ``rank`` onto the lattice of rank ``target``:
    an identity block beside random entries in [-1, 1], in a random basis."""
    block = [[int(i == j) for j in range(target)] + [rng.randint(-1, 1) for _ in range(rank - target)]
             for i in range(target)]
    columns = list(zip(*_unimodular_basis(rng, rank)))
    return [apply(columns, row) for row in block]


def _random_invariant_degree2(rng: random.Random, variety: CxOneVariety) -> dict[ProjPoint, Q]:
    group = variety.moebius_group
    extra = [ProjPoint.from_affine(rat(t)) for t in (5, 7, -3)] + [ProjPoint.infinity()]
    orbits = _distinct_orbits([orbit_of(group, p) for p in [f.point for f in variety.fibers] + extra])
    masses = [rat(rng.randint(0, 4)) for _ in orbits]
    if all(m == 0 for m in masses):
        masses[0] = ONE
    scale = TWO / sum((m * Q(len(o.points)) for m, o in zip(masses, orbits)), ZERO)
    coeffs: dict[ProjPoint, Q] = {}
    for m, orbit in zip(masses, orbits):
        for p in orbit.points:
            coeffs[p] = m * scale
    return coeffs


def suite_effectivity(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for k in range(cases):
        variety = _random_variety(rng)
        q_y = _random_invariant_degree2(rng, variety)
        lift = anticanonical_lift(variety, q_y)
        b = boundary(variety)
        dominates = all(q_y.get(p, ZERO) >= c for p, c in b if not is_neg_infinity(c))
        if all(c >= 0 for c in lift.values()) != dominates:
            points = tuple(f.point for f in variety.fibers)
            failures.append(f"case {k}: effectivity mismatch on {points}")
    return failures


def suite_lct_oracle(rng: random.Random, cases: int) -> list[str]:
    failures = []
    pool = _group_pool()
    for k in range(cases):
        group = rng.choice(pool)
        pair = _random_invariant_pair(rng, group)
        res = lct_g(pair, group)
        expected = lct_oracle(pair, group, rng)
        got = None if res.is_infinite else res.value
        if got != expected:
            failures.append(f"case {k}: formula {got} vs oracle {expected} on {pair!r}")
    return failures


def suite_conjugation_invariance(rng: random.Random, cases: int) -> list[str]:
    failures = []
    pool = _group_pool()
    for k in range(cases):
        group = rng.choice(pool)
        pair = _random_invariant_pair(rng, group)
        h = gl2q(rng)
        conj_pair = MarkedCurvePair(
            sorted(((h.apply(p), c) for p, c in pair), key=lambda pc: pc[0].sort_key())
        )
        conj_group = _conjugate_group(group, h)
        a = lct_g(pair, group)
        b = lct_g(conj_pair, conj_group)
        if (a.value, a.is_infinite) != (b.value, b.is_infinite):
            failures.append(f"case {k}: {a.value} != {b.value} after conjugation by {h!r}")
    return failures


def suite_stiemke(rng: random.Random, cases: int) -> list[str]:
    """Every row of the stability locus, for torus rank 1-3 as ``git locus``
    draws it: its certificate against its own inequalities, its verdict
    against the candidate-ray oracle, and the full support's row against
    ``is_polystable``."""
    failures = []
    for k in range(cases):
        d = rng.randint(1, 3)
        n = rng.randint(1, 6)
        weights = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        labels = [f"x{i}" for i in range(n)]
        wm = WeightMatrix(labels, weights)
        rows = polystable_locus(wm)
        for support, verdict, cert in rows:
            if not verify_stability_cert(wm, support, cert):
                failures.append(f"case {k}: certificate of {support} fails its own inequalities")
            elif verdict != is_polystable_oracle(wm, support):
                failures.append(f"case {k}: locus and candidate-ray oracle disagree on {support}")
            elif verdict != isinstance(cert, PositiveCombination):
                failures.append(f"case {k}: verdict {verdict} on {support} with the other certificate")
        full = next(row for row in rows if row[0] == tuple(labels))
        if full[1:] != is_polystable(wm, labels):
            failures.append(f"case {k}: locus row of the full support differs from is_polystable")
    return failures


SUITES = (
    ("snf_identity", suite_snf_identity),
    ("effectivity_equivalence", suite_effectivity),
    ("lct_formula_vs_oracle", suite_lct_oracle),
    ("moebius_conjugation_invariance", suite_conjugation_invariance),
    ("stiemke_certificates", suite_stiemke),
)


def suite_seed(base: int, name: str) -> int:
    """Stable per-suite seed (process-independent, unlike hash())."""
    return base ^ zlib.crc32(name.encode())


def run_selftest(seed: int, cases: int) -> list[tuple[str, list[str]]]:
    """Run every suite with its own seeded generator; returns each suite's
    name and failures, in ``SUITES`` order.  A suite of no cases would pass
    without checking anything, so ``cases`` must be at least 1."""
    if cases < 1:
        raise InputError(f"selftest needs at least 1 case per suite, not {cases}")
    return [(name, suite(random.Random(suite_seed(seed, name)), cases)) for name, suite in SUITES]
