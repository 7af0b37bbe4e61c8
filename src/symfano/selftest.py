"""Seeded randomized property suites with independent oracles.

Each suite rechecks one load-bearing identity against a computation that does
not share code with the path under test: matrix identities are re-multiplied,
thresholds are recomputed divisor-by-divisor from the log canonicity
definition, and stability results are replayed against the exhaustive
candidate set of one-parameter subgroups.  The CLI exposes this as
``symfano selftest``; the pytest acceptance suite runs the same functions.
"""

from __future__ import annotations

import random
import zlib

from .curvepair import MarkedCurvePair, finite_degree, is_neg_infinity, lct_g
from .errors import InputError
from .exact import IntMatrix, PositiveCombination, ProjPoint, smith_normal_form
from .groups import MoebiusElement, MoebiusGroup, closure, exceptional_orbits, orbit_of
from .quotients import WeightMatrix, is_polystable, is_polystable_oracle, verify_stability_cert
from .rationals import ONE, Q, TWO, ZERO, rat
from .tvariety import (
    CxOneVariety,
    Fiber,
    LatticeAutGroup,
    VerticalDivisor,
    anticanonical_lift,
    boundary,
)

# finite groups of projective transformations over Q, by generator sets
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
)


def _group_pool() -> list[MoebiusGroup]:
    return [closure([MoebiusElement(g) for g in gens]) for gens in _GROUP_GENERATORS]


def _conjugate_group(group: MoebiusGroup, h: MoebiusElement) -> MoebiusGroup:
    hinv = h.inverse()
    mapped = tuple(sorted((h * g * hinv for g in group), key=MoebiusElement.sort_key))
    return MoebiusGroup(mapped)


def _random_rational(rng: random.Random) -> Q:
    return rat(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))


def _random_invariant_pair(rng: random.Random, group: MoebiusGroup, max_orbits=3):
    """Random pair with orbit-closed support, constant coefficients, degree < 2."""
    marked: dict[ProjPoint, Q] = {}
    degree = ZERO
    exceptional = exceptional_orbits(group)
    for _ in range(rng.randint(0, max_orbits)):
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
    orbits = []
    seen = set()
    for p, _ in pair:
        orbit = orbit_of(group, p)
        if orbit.points not in seen:
            seen.add(orbit.points)
            orbits.append(orbit)
    for orbit in exceptional_orbits(group):
        if orbit.points not in seen:
            seen.add(orbit.points)
            orbits.append(orbit)
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
    swap = MoebiusElement([[0, 1], [1, 0]])
    use_swap = rng.random() < 0.4
    points = []
    zero = ProjPoint.from_affine(rat(0))
    inf = ProjPoint.infinity()
    if use_swap:
        if rng.random() < 0.8:
            points.append((zero, inf))
        if rng.random() < 0.5:
            points.append((ProjPoint.from_affine(rat(1)),))
        if rng.random() < 0.4:
            points.append((ProjPoint.from_affine(rat(2)), ProjPoint.from_affine(rat(1, 2))))
    else:
        for t in rng.sample((0, 1, -1, 2, -2, 3), rng.randint(0, 3)):
            points.append((ProjPoint.from_affine(rat(t)),))
        if rng.random() < 0.3:
            points.append((inf,))
    fibers = []
    counter = 0
    for orbit in points:
        orders = sorted(rng.choices((1, 1, 2, 2, 3, 4), k=rng.randint(1, 3)))
        for p in orbit:
            divisors = tuple(
                VerticalDivisor(f"d{counter + i}", o) for i, o in enumerate(orders)
            )
            counter += len(orders)
            fibers.append(Fiber(p, divisors))
    horizontals = tuple(f"h{i}" for i in range(rng.randint(0, 2)))
    lattice = LatticeAutGroup(2, [[[-1, 0], [0, -1]]])
    moebius = (swap,) if use_swap else (MoebiusElement.identity(),)
    return CxOneVariety(
        name="random", dim=3, fibers=tuple(fibers), horizontals=horizontals,
        lattice=lattice, moebius_generators=moebius,
    )


def _random_invariant_degree2(rng: random.Random, variety: CxOneVariety) -> dict[ProjPoint, Q]:
    group = variety.moebius_group
    orbits = []
    seen = set()
    for f in variety.fibers:
        orbit = orbit_of(group, f.point)
        if orbit.points not in seen:
            seen.add(orbit.points)
            orbits.append(orbit)
    extra = [ProjPoint.from_affine(rat(t)) for t in (5, 7, -3)] + [ProjPoint.infinity()]
    for p in extra:
        orbit = orbit_of(group, p)
        if orbit.points not in seen:
            seen.add(orbit.points)
            orbits.append(orbit)
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
        while True:
            entries = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0] != 0:
                break
        h = MoebiusElement(entries)
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
    failures = []
    for k in range(cases):
        d = rng.randint(1, 2)
        n = rng.randint(1, 6)
        weights = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        labels = [f"x{i}" for i in range(n)]
        wm = WeightMatrix(labels, weights)
        verdict, cert = is_polystable(wm, labels)
        if not verify_stability_cert(wm, labels, cert):
            failures.append(f"case {k}: certificate fails its own inequalities")
            continue
        if verdict != is_polystable_oracle(wm, labels):
            failures.append(f"case {k}: simplex and candidate-ray oracle disagree")
        if verdict and not isinstance(cert, PositiveCombination):
            failures.append(f"case {k}: positive verdict without positive combination")
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


def run_selftest(seed: int = 0, cases: int = 200) -> list[tuple[str, list[str]]]:
    """Run every suite with its own seeded generator; returns each suite's
    name and failures, in ``SUITES`` order.  A suite of no cases would pass
    without checking anything, so ``cases`` must be at least 1."""
    if cases < 1:
        raise InputError(f"selftest needs at least 1 case per suite, not {cases}")
    return [(name, suite(random.Random(suite_seed(seed, name)), cases)) for name, suite in SUITES]
