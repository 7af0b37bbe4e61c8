"""Seeded input generators for the benchmark workloads.

Nothing here imports symfano: the group closures and orbits needed to build
invariant inputs are computed with ``fractions`` in this file, so a change to
the package cannot change the inputs it is measured on.  Every generator takes
a ``random.Random`` and returns the JSON document the CLI reads.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

# One generator set per finite subgroup class of PGL2(Q) (Beauville 2010),
# with the order of the group it generates.  C1 is written as the identity
# because both file formats need at least one generator.
GROUP_CLASSES = {
    "C1": ((((1, 0), (0, 1)),), 1),
    "C2": ((((0, 1), (1, 0)),), 2),
    "C2-irrational": ((((2, 3), (1, -2)),), 2),
    "C3": ((((-1, -1), (1, 0)),), 3),
    "C4": ((((1, -1), (1, 1)),), 4),
    "C6": ((((2, -1), (1, 1)),), 6),
    "D2": ((((0, 1), (1, 0)), ((-1, 0), (0, 1))), 4),
    "D3": ((((-1, -1), (1, 0)), ((1, 0), (-1, -1))), 6),
    "D4": ((((1, -1), (1, 1)), ((-1, 0), (0, 1))), 8),
    "D6": ((((2, -1), (1, 1)), ((-1, 1), (0, 1))), 12),
}
CYCLIC_CLASSES = frozenset(("C1", "C2", "C2-irrational", "C3", "C4", "C6"))

INFINITY = (F(1), F(0))


# ---------------------------------------------------------------------------
# projective 2x2 transformations over Q, as normalised 4-tuples
# ---------------------------------------------------------------------------


def _normalise(a, b, c, d):
    scale = next(x for x in (a, b, c, d) if x != 0)
    return (a / scale, b / scale, c / scale, d / scale)


def moebius(matrix):
    (a, b), (c, d) = matrix
    return _normalise(F(a), F(b), F(c), F(d))


def _mul(g, h):
    a, b, c, d = g
    e, f, k, m = h
    return _normalise(a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m)


def _inverse(g):
    a, b, c, d = g
    return _normalise(d, -b, -c, a)


def group_elements(generators) -> list:
    """All elements of the (finite) group the generators produce."""
    identity = moebius(((1, 0), (0, 1)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                prod = _mul(h, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        if len(seen) > 12:
            raise ValueError("generators do not produce a finite subgroup of PGL2(Q)")
    return sorted(seen)


def _apply(g, point):
    a, b, c, d = g
    x, y = point
    u, v = a * x + b * y, c * x + d * y
    return (F(1), F(0)) if v == 0 else (u / v, F(1))


def orbit(elements, point) -> tuple:
    return tuple(sorted({_apply(g, point) for g in elements}))


def _rational_fixed_points(elements) -> list:
    """Rational points with a nontrivial stabilizer: fixed points of the
    non-identity elements that are not in a quadratic extension."""
    out = set()
    for a, b, c, d in elements:
        if b == 0 and c == 0 and a == d:
            continue
        if c == 0:
            out.add(INFINITY)
            if a != d:
                out.add((b / (d - a), F(1)))
            continue
        # c t^2 + (d - a) t - b = 0
        disc = (d - a) ** 2 + 4 * c * b
        root = _rational_sqrt(disc)
        if root is not None:
            for s in (root, -root):
                out.add(((a - d + s) / (2 * c), F(1)))
    return sorted(out)


def _rational_sqrt(q: F):
    if q < 0:
        return None
    n, m = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, m) if n * n == q.numerator and m * m == q.denominator else None


def _point_json(point) -> list:
    return [str(point[0]), str(point[1])]


def _matrix_json(g) -> list:
    a, b, c, d = g
    return [[str(a), str(b)], [str(c), str(d)]]


# ---------------------------------------------------------------------------
# generator sets: fresh conjugates and reuse of earlier ones
# ---------------------------------------------------------------------------


class GeneratorSets:
    """Source of Moebius generator sets for the threshold workload.

    A fresh set is a class's generators conjugated by a random matrix of
    SL2(Z) not used before for that class; conjugating by a unimodular matrix
    keeps the entries integral and small, so fresh sets cost about what the
    class costs.  A reused set is one handed out before (the unconjugated
    class generators count as seen from the start).
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen = {name: [tuple(moebius(g) for g in gens)] for name, (gens, _) in GROUP_CLASSES.items()}

    def _conjugator(self):
        rng = self.rng
        while True:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if math.gcd(a, b) == 1:
                break
        # a d - b c = 1 from the extended gcd, then a random shear
        d, c = _bezout(a, b)
        t = rng.randint(-3, 3)
        return moebius(((a, b), (c + t * a, d + t * b)))

    def draw(self, class_name: str, reuse: bool) -> tuple:
        seen = self.seen[class_name]
        if reuse:
            return self.rng.choice(seen)
        for _ in range(100):
            h = self._conjugator()
            hinv = _inverse(h)
            gens = tuple(_mul(_mul(h, moebius(g)), hinv) for g in GROUP_CLASSES[class_name][0])
            if gens not in seen:
                break
        seen.append(gens)
        return gens


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a x - b y = 1, for coprime a and b."""
    old_r, r, old_s, s_, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s_ = s_, old_s - q * s_
        old_t, t = t, old_t - q * t
    # a old_s + b old_t = old_r = +-1
    return old_s * old_r, -old_t * old_r


def _random_rational_point(rng: random.Random):
    if rng.random() < 0.1:
        return INFINITY
    return (F(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3))), F(1))


def _marked_orbits(rng: random.Random, elements, weigh, count: int):
    """``count`` pairwise disjoint orbits of rational points, as far as a few
    dozen draws find them.

    ``weigh(orbit)`` returns the data attached to an orbit and its contribution
    to the boundary degree; orbits that would bring the degree to 2 or more
    are skipped, as in a Fano boundary.
    """
    special = _rational_fixed_points(elements)
    chosen = []
    used = set()
    degree = F(0)
    for _ in range(40):
        if len(chosen) == count:
            break
        base = rng.choice(special) if special and rng.random() < 0.4 else _random_rational_point(rng)
        points = orbit(elements, base)
        if used.intersection(points):
            continue
        data, mass = weigh(points)
        if degree + mass >= 2:
            continue
        used.update(points)
        degree += mass
        chosen.append((points, data))
    return chosen


def pair_document(rng: random.Random, generators, orbits: int) -> dict:
    """Marked pair on the line, invariant under the group of ``generators``,
    with ``orbits`` marked orbits."""
    elements = group_elements(generators)

    def weigh(points):
        coeff = F(rng.randint(0, 4), 4)
        return coeff, coeff * len(points)

    marked = []
    for points, coeff in _marked_orbits(rng, elements, weigh, orbits):
        marked.extend({"pt": _point_json(p), "coeff": str(coeff)} for p in points)
    return {
        "name": "bench-pair",
        "points": marked,
        "moebius_generators": [_matrix_json(g) for g in generators],
    }


def variety_document(rng: random.Random, generators, class_name: str, orbits: int, declared: bool) -> dict:
    """Complexity-one variety whose ``orbits`` marked fiber orbits are
    invariant under the group.

    The lattice side pairs -1 with the first generator and the identity with
    the others, so the action is symmetric.  With ``declared`` the induced
    action is given as the permutations the generators make of the fibers.
    """
    elements = group_elements(generators)
    dim = rng.choice((2, 3))

    def weigh(points):
        orders = sorted(rng.choices((1, 1, 2, 2, 3, 4), k=rng.randint(1, 3)))
        m = max(orders)
        return orders, F(m - 1, m) * len(points)

    fibers = []
    names = 0
    for points, orders in _marked_orbits(rng, elements, weigh, orbits):
        for p in points:
            divisors = [{"name": f"d{names + i}", "order": o} for i, o in enumerate(orders)]
            names += len(orders)
            fibers.append({"point": p, "divisors": divisors})
    rank = dim - 1
    minus = [[-1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    symmetry = {"lattice_generators": [minus] + [ident] * (len(generators) - 1)}
    if declared:
        index = {f["point"]: i for i, f in enumerate(fibers)}
        symmetry["marked_permutations"] = [
            [index[_apply(g, f["point"])] for f in fibers] for g in generators
        ]
        symmetry["induced_cyclic"] = class_name in CYCLIC_CLASSES
    else:
        symmetry["moebius_generators"] = [_matrix_json(g) for g in generators]
    for f in fibers:
        f["point"] = _point_json(f["point"])
    return {
        "name": "bench-variety",
        "dim": dim,
        "fano": True,
        "log_terminal": True,
        "fibers": fibers,
        "horizontal": [f"h{i}" for i in range(rng.randint(0, 2))],
        "symmetry": symmetry,
    }


def unimodular(rng: random.Random, rank: int) -> list[list[int]]:
    """Random integer matrix of determinant +-1: three elementary row operations."""
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(3 if rank > 1 else 1):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        move = rng.random()
        if i != j and move < 0.6:
            sign = rng.choice((1, -1))
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
        elif i != j and move < 0.8:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


def _apply_matrix(m, v) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def weights_template(rng: random.Random, coordinates: int, torus_rank: int) -> list[list[int]]:
    return [[rng.randint(-2, 2) for _ in range(coordinates)] for _ in range(torus_rank)]


def weights_document(rng: random.Random, template: list[list[int]]) -> dict:
    """The template in new coordinates: a random change of torus basis and a
    random order of the columns.  Both keep every verdict's combinatorics,
    so the cost of an operation depends on the template, not on the seed.
    A third of the documents carry a claimed locus."""
    rank, n = len(template), len(template[0])
    u = unimodular(rng, rank)
    order = list(range(n))
    rng.shuffle(order)
    columns = [_apply_matrix(u, [row[j] for row in template]) for j in order]
    labels = [f"x{i}" for i in range(n)]
    doc = {
        "name": f"bench-weights-{n}x{rank}",
        "labels": labels,
        "weights": [[col[i] for col in columns] for i in range(rank)],
    }
    if rng.random() < 1 / 3:
        doc["claimed_polystable_supports_any_of"] = [
            sorted(rng.sample(labels, rng.randint(2, n)), key=labels.index)
            for _ in range(rng.randint(1, 2))
        ]
    return doc


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def _primitive(v) -> tuple:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def _directions(rng: random.Random, rank: int, count: int, bound: int) -> list[tuple]:
    """Primitive integer vectors, no two on a common line."""
    out: list[tuple] = []
    while len(out) < count:
        v = _primitive([rng.randint(-bound, bound) for _ in range(rank)])
        if any(v) and v not in out and tuple(-x for x in v) not in out:
            out.append(v)
    return out


def _signed(rng: random.Random, v) -> tuple:
    return tuple(x * rng.choice((1, -1)) for x in v)


def chow_template(rng: random.Random, target_rank: int, cones: int, lines: int) -> list[list[tuple]]:
    """Image cones, as lists of rays, for a refinement family.

    Rank 2: ``lines`` ray directions, each pointed cone spanned by two of them
    (every direction is used), one cone in five a half-plane.  Rank 3:
    simplicial cones on rays drawn from ``lines`` directions.
    """
    if target_rank == 2:
        dirs = _directions(rng, 2, lines, 3)
        order = list(range(lines))
        rng.shuffle(order)
        images = []
        for i in range(cones):
            a = dirs[order[(2 * i) % lines]]
            b = dirs[order[(2 * i + 1) % lines]]
            ra, rb = _signed(rng, a), _signed(rng, b)
            if rng.random() < 0.2:
                images.append([ra, tuple(-x for x in ra), rb])
            else:
                images.append([ra, rb])
        return images
    dirs = _directions(rng, target_rank, lines, 2)
    images = []
    while len(images) < cones:
        rays = rng.sample(dirs, target_rank)
        if _det([list(r) for r in rays]) != 0:
            images.append([_signed(rng, r) for r in rays])
    return images


# Two rank-3 image cones whose greedy-merge refinement leaves a T-junction
# (the documented reproducer of the refinement defect).
T_JUNCTION = [[(-1, -2, 2), (0, 2, -1), (2, -1, 0)], [(-2, 0, 1), (-1, 0, -2), (0, 1, 1)]]


def chow_lift(rng: random.Random, template: list[list[tuple]]) -> dict:
    """Coordinates for a refinement family: a change of basis U of the
    target, the projection column c, a lift height per image ray and the sign
    of each cone's kernel vector."""
    t = len(template[0][0])
    return {
        "basis": unimodular(rng, t),
        "column": [rng.randint(-2, 2) for _ in range(t)],
        "heights": [[rng.randint(-2, 2) for _ in image] for image in template],
        "signs": [rng.choice((1, -1)) for _ in template],
    }


def chow_document(rng: random.Random, template: list[list[tuple]], lift: dict) -> dict:
    """A fan and a projection onto the target lattice whose projected cones
    are the template's image cones in the lift's coordinates, listed in an
    order drawn from ``rng``.

    [I | c] is the projection; each image ray w becomes U w, lifted to
    (U w - h c, h) with its height h, and every cone also gets the kernel
    vector (-c, 1) or its negative, so it is full-dimensional and projects
    onto U times the template cone.  The cost of a refinement swings by a
    factor of three with the heights and the order of the coordinates, but
    hardly with the order of the cones.
    """
    t = len(template[0][0])
    column = lift["column"]
    projection = [[1 if i == j else 0 for j in range(t)] + [column[i]] for i in range(t)]
    kernel = [-c for c in column] + [1]
    order = list(range(len(template)))
    rng.shuffle(order)
    cones = []
    for k in order:
        gens = []
        for ray, h in zip(template[k], lift["heights"][k]):
            w = _apply_matrix(lift["basis"], ray)
            gens.append([w[i] - h * column[i] for i in range(t)] + [h])
        gens.append([lift["signs"][k] * x for x in kernel])
        cones.append({"generators": gens})
    return {
        "name": f"bench-chow-{t}x{len(template)}",
        "fan": {"rank": t + 1, "cones": cones},
        "projection": projection,
    }
