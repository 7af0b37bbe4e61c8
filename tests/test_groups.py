import functools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from make_corpus import BIG_A, BIG_ENTRIES, D4_BIG, D4_BIG_CONJUGATOR

from symfano import groups
from symfano.cli import EXIT_INTERNAL, run
from symfano.errors import IdentityElement, InputError, InternalError, NotFiniteWithinCap
from symfano.exact import IntMatrix, ProjPoint, smith_normal_form
from symfano.groups import (
    LatticeAutGroup,
    MoebiusElement,
    MoebiusGroup,
    closure,
    exceptional_orbits,
    fixed_points,
    fixed_sublattice,
    has_global_fixed_point,
    is_symmetric,
    moebius_through,
    orbit_of,
)
from symfano.rationals import rat, rat_str, squarefree_decompose
from symfano.schemas import fixture_path
from symfano.selftest import _GROUP_GENERATORS, _conjugate_group, _group_pool, gl2q, sl2z

INVOLUTION = MoebiusElement([[0, 1], [1, 0]])          # x -> 1/x
THREE_CYCLE = MoebiusElement([[-1, -1], [1, 0]])       # 0 -> inf -> -1 -> 0
TRANSPOSITION = MoebiusElement([[1, 0], [-1, -1]])     # fixes 0, swaps -1 and inf
C4 = MoebiusElement([[1, -1], [1, 1]])                 # order 4, fixes sqrt(-1), -sqrt(-1)
C6 = MoebiusElement([[2, -1], [1, 1]])                 # order 6
NEGATION = MoebiusElement([[-1, 0], [0, 1]])           # x -> -x


def s3():
    return closure([THREE_CYCLE, TRANSPOSITION])


def d4():
    return closure([C4, NEGATION])


def d6():
    return closure([C6, INVOLUTION])


def classify(group: MoebiusGroup) -> str:
    """Reference: name the group by its order and its largest element order."""

    def element_order(g):
        power, k = g, 1
        while not power.is_identity():
            power, k = power * g, k + 1
        return k

    if group.order == 1:
        return "trivial"
    largest = max(element_order(g) for g in group)
    if largest == group.order:
        return f"cyclic({largest})"
    assert 2 * largest == group.order, "element orders fit no cyclic or dihedral group"
    return f"dihedral({largest})"


def pt(t):
    return ProjPoint.from_affine(rat(t))


def test_closure_examples():
    assert closure([MoebiusElement.identity()]).order == 1
    assert closure([INVOLUTION]).order == 2
    group = s3()
    assert group.order == 6
    # the three transpositions of {0, -1, inf} generate the same group
    transpositions = [
        MoebiusElement([[-1, -1], [0, 1]]),  # swaps 0 and -1
        MoebiusElement([[0, 1], [1, 0]]),    # swaps 0 and inf
        MoebiusElement([[-1, 0], [1, 1]]),   # swaps -1 and inf
    ]
    from_transpositions = closure(transpositions)
    assert from_transpositions.order == 6
    assert set(from_transpositions.elements) == set(group.elements)


def test_closure_is_closed():
    group = s3()
    elements = set(group.elements)
    for g in group:
        assert g.inverse() in elements
        for h in group:
            assert g * h in elements


def test_closure_cap():
    translation = MoebiusElement([[1, 1], [0, 1]])
    with pytest.raises(NotFiniteWithinCap):
        closure([translation])


def _two_sided_closure(generators):
    """Reference: close under products with the generators on both sides;
    None once it passes 12 elements."""
    seen = {MoebiusElement.identity()}
    frontier = set(seen)
    while frontier and len(seen) <= 12:
        frontier = {p for h in frontier for g in generators for p in (h * g, g * h)} - seen
        seen |= frontier
    return None if len(seen) > 12 else sorted(seen, key=MoebiusElement.sort_key)


def test_one_sided_closure_matches_two_sided_reference(rng, property_cases):
    finite = [[MoebiusElement(g) for g in gens] for gens in _GROUP_GENERATORS]
    finite.append([THREE_CYCLE, TRANSPOSITION, INVOLUTION])
    infinite = [
        [MoebiusElement([[1, 1], [0, 1]])],                           # x -> x + 1
        [MoebiusElement([[2, 0], [0, 1]])],                           # x -> 2x
        [NEGATION, MoebiusElement([[-1, 1], [0, 1]])],                # two involutions, product x -> x - 1
        [C4, THREE_CYCLE],
    ]
    kinds = set()
    for k in range(property_cases):
        if k % 3 == 2:
            gens = [gl2q(rng) for _ in range(rng.randint(1, 2))]
        else:
            gens = rng.choice(finite + infinite)
            if k % 3:
                h = gl2q(rng)
                gens = [h * g * h.inverse() for g in gens]
        expected = _two_sided_closure(gens)
        kinds.add(expected is None)
        if expected is None:
            with pytest.raises(NotFiniteWithinCap):
                closure(gens)
        else:
            assert list(closure(gens).elements) == expected, gens
    assert kinds == {True, False}


def test_global_fixed_point_iff_trivial_or_cyclic():
    pool = _group_pool()
    assert [classify(g) for g in pool] == [
        "trivial", "cyclic(2)", "cyclic(2)", "cyclic(2)", "cyclic(3)", "cyclic(4)",
        "cyclic(6)", "dihedral(3)", "dihedral(2)", "dihedral(4)", "dihedral(6)",
    ]
    rng = random.Random(20261018)
    for group in pool:
        for k in range(21):
            conjugate = group
            if k:
                while True:
                    h = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
                    if h[0][0] * h[1][1] != h[0][1] * h[1][0]:
                        break
                conjugate = _conjugate_group(group, MoebiusElement(h))
            kind = classify(conjugate)
            assert has_global_fixed_point(conjugate) == (not kind.startswith("dihedral")), (kind, k)


def test_each_exceptional_orbit_built_once(monkeypatch):
    calls = []
    original = groups.orbit_of

    def counted(group, p):
        calls.append(p)
        return original(group, p)

    monkeypatch.setattr(groups, "orbit_of", counted)
    for make, classes in ((lambda: closure([C4]), 2), (d4, 3), (d6, 3)):
        group = make()
        calls.clear()
        orbits = exceptional_orbits(group)
        assert len(orbits) == classes and len(calls) == classes
        # later calls and the fixed point test reuse the group's orbits
        again = exceptional_orbits(group)
        has_global_fixed_point(group)
        assert again == orbits and again is not orbits and len(calls) == classes


def test_has_global_fixed_point():
    assert has_global_fixed_point(closure([MoebiusElement.identity()]))
    group = closure([INVOLUTION])
    assert has_global_fixed_point(group)
    # produce and verify the common fixed point
    common = [p for p in fixed_points(INVOLUTION) if all(g.apply(p) == p for g in group)]
    assert common
    assert not has_global_fixed_point(s3())
    for orbit in exceptional_orbits(s3()):
        assert orbit.size > 1


def test_fixed_points_examples():
    pts = fixed_points(INVOLUTION)
    assert set(pts) == {pt(1), pt(-1)}
    (single,) = fixed_points(MoebiusElement([[1, 1], [0, 1]]))
    assert single == ProjPoint.infinity()
    rot = MoebiusElement([[0, -1], [1, 0]])
    a, b = fixed_points(rot)
    assert {p.d for p in (a, b)} == {-1}
    for g in (INVOLUTION, THREE_CYCLE, TRANSPOSITION, rot):
        for p in fixed_points(g):
            assert g.apply(p) == p
    with pytest.raises(IdentityElement):
        fixed_points(MoebiusElement([[3, 0], [0, 3]]))


def test_fixed_points_rational_past_the_trial_bound():
    """(t - q)(t + 3q) has the square discriminant 16 q^2, whose cofactor q^2
    exceeds 2^32: the fixed points of t -> 3q^2/(t + 2q) come out rational."""
    for q in (65537, 65539, 65543, 1000003, 2**31 - 1):
        g = MoebiusElement([[0, 3 * q * q], [1, 2 * q]])
        assert fixed_points(g) == (pt(-3 * q), pt(q))
        assert all(p.d is None for p in fixed_points(g))


def test_exceptional_orbits_involution():
    orbits = exceptional_orbits(closure([INVOLUTION]))
    assert [(o.points, o.stabilizer_order) for o in orbits] == [
        ((pt(-1),), 2),
        ((pt(1),), 2),
    ]
    assert exceptional_orbits(closure([MoebiusElement.identity()])) == []


def test_exceptional_orbits_s3():
    group = s3()
    orbits = exceptional_orbits(group)
    sizes = sorted((o.size, o.stabilizer_order) for o in orbits)
    assert sizes == [(2, 3), (3, 2), (3, 2)]
    marked = {pt(0), pt(-1), ProjPoint.infinity()}
    assert any(set(o.points) == marked for o in orbits)
    # every fixed point of every nontrivial element lies in exactly one orbit
    all_points = [p for o in orbits for p in o.points]
    assert len(all_points) == len(set(all_points))
    for g in group:
        if g.is_identity():
            continue
        for p in fixed_points(g):
            assert any(p in o.points for o in orbits)


def test_orbit_counting(rng):
    groups = (
        closure([INVOLUTION]),
        s3(),
        closure([THREE_CYCLE]),
        closure([MoebiusElement([[1, -1], [1, 1]])]),     # cyclic(4), fixed points over sqrt(-1)
        closure([MoebiusElement([[2, -1], [1, 1]])]),     # cyclic(6), fixed points over sqrt(-3)
        closure([INVOLUTION, MoebiusElement([[-1, 0], [0, 1]])]),  # Klein, mixed extensions
    )
    for group in groups:
        total_fixed = sum(
            len(fixed_points(g)) for g in group if not g.is_identity()
        )
        total_orbit = sum(o.size * (o.stabilizer_order - 1) for o in exceptional_orbits(group))
        assert total_fixed == total_orbit
        for orbit in exceptional_orbits(group):
            assert orbit.size * orbit.stabilizer_order == group.order
            for g in group:
                for p in orbit.points:
                    assert g.apply(p) in orbit.points


BIG_PRIME = BIG_A**2 + 65537**2  # a prime above 2^48


def d4_over_big_fields() -> MoebiusGroup:
    """A dihedral group of order 8 with fixed points over d = BIG_PRIME and
    over d = 65537^2 * BIG_PRIME, whose square factor the reduction keeps."""
    return _conjugate_group(closure(D4_BIG), MoebiusElement(D4_BIG_CONJUGATOR))


def test_exceptional_orbits_reduce_one_radicand_per_orbit(monkeypatch):
    # equality needs no radicand, so only the fixed point that seeds an
    # orbit has its discriminant reduced; the others are already covered
    calls = []
    original = groups.squarefree_decompose
    monkeypatch.setattr(groups, "squarefree_decompose", lambda n: calls.append(n) or original(n))
    orbits = exceptional_orbits(d4_over_big_fields())
    assert [o.size for o in orbits] == [2, 4, 4]
    assert 0 < len(calls) <= len(orbits)


def test_exceptional_orbits_over_big_fields():
    """The reduction of a discriminant may keep the square of a prime above
    2^16, so one orbit can be written over d = p and over d = 65537^2 * p;
    its points still dedupe, and big entries give the orbits of small ones."""
    d4_big = d4_over_big_fields()
    cases = (
        (d4_big, [2, 4, 4]),
        (_conjugate_group(closure([C4]), MoebiusElement(BIG_ENTRIES)), [1, 1]),
        (_conjugate_group(d6(), MoebiusElement(BIG_ENTRIES)), [2, 6, 6]),
    )
    for group, sizes in cases:
        orbits = exceptional_orbits(group)
        assert [o.size for o in orbits] == sizes
        points = [p for o in orbits for p in o.points]
        assert len(points) == len(set(points))
        fixed = [p for g in group if not g.is_identity() for p in fixed_points(g)]
        assert all(p in points for p in fixed)
    fields = {p.d for g in d4_big if not g.is_identity() for p in fixed_points(g)}
    assert {BIG_PRIME, 65537**2 * BIG_PRIME} <= fields


def test_orbit_of():
    trivial = closure([MoebiusElement.identity()])
    orbit = orbit_of(trivial, pt(7))
    assert orbit.points == (pt(7),) and orbit.stabilizer_order == 1
    group = closure([INVOLUTION])
    orbit = orbit_of(group, pt(2))
    assert set(orbit.points) == {pt(2), pt(rat(1, 2))} and orbit.stabilizer_order == 1
    orbit = orbit_of(group, pt(1))
    assert orbit.points == (pt(1),) and orbit.stabilizer_order == 2
    # three elements that are no group: the orbit {2, 1/2} has a size that does not divide 3
    not_a_group = MoebiusGroup((MoebiusElement.identity(), INVOLUTION, MoebiusElement([[2, -3], [0, 2]])))
    with pytest.raises(InternalError, match="orbit size does not divide the group order"):
        orbit_of(not_a_group, pt(2))


def test_a_fixed_point_with_a_trivial_stabilizer_is_an_internal_error(monkeypatch, capsys):
    # 2 given as the fixed point of x -> 1/x: its orbit {2, 1/2} has a trivial stabilizer
    monkeypatch.setattr(groups, "_fixed_coords", lambda g: ([(2, 1)], 1))
    with pytest.raises(InternalError, match="an orbit of fixed points has a trivial stabilizer"):
        exceptional_orbits(closure([INVOLUTION]))
    assert run(["lct", str(fixture_path("pair-involution.json"))]) == EXIT_INTERNAL
    assert capsys.readouterr().out == ""


def test_moebius_through_three_points(rng, property_cases):
    inf = ProjPoint.infinity()
    assert moebius_through([pt(0), inf, pt(-1)], [inf, pt(-1), pt(0)]) == THREE_CYCLE
    assert moebius_through([pt(0), pt(1), pt(2)], [pt(1), pt(2), pt(3)]) == MoebiusElement([[1, 1], [0, 1]])
    assert moebius_through([pt(0), pt(1), inf], [pt(0), pt(1), inf]).is_identity()
    for _ in range(property_cases):
        entries = [[rat(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
        if entries[0][0] * entries[1][1] == entries[0][1] * entries[1][0]:
            continue
        g = MoebiusElement(entries)
        candidates = [inf] + [pt(rat(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(6)]
        points = list(dict.fromkeys(candidates))[:3]
        # the map through three points and their images is the map itself
        assert moebius_through(points, [g.apply(p) for p in points]) == g


def test_moebius_projective_equality():
    assert MoebiusElement([[2, 0], [0, 2]]).is_identity()
    assert MoebiusElement([[0, 2], [2, 0]]) == INVOLUTION
    with pytest.raises(InputError):
        MoebiusElement([[1, 1], [1, 1]])


def test_moebius_constructor_validates():
    with pytest.raises(InputError):
        MoebiusElement([[1, 2], [2, 4]])
    with pytest.raises(InputError):
        MoebiusElement([[0, 0], [0, 0]])
    for bad in ([[1, 0, 0], [0, 1, 0]], [[1, 0]], [1, 0, 0, 1], 5, [[1, 0], [0]]):
        with pytest.raises(InputError):
            MoebiusElement(bad)
    for bad in ([[1.5, 0], [0, 1]], [[True, 0], [0, 1]], [["1/0", 0], [0, 1]]):
        with pytest.raises(InputError, match="not a rational|zero denominator"):
            MoebiusElement(bad)


def test_moebius_from_rationals_clears_denominators_once():
    # the loaders' int pairs and the public constructor's rationals meet in one routine
    written = [["1/2", "-3/4"], ["2/-3", "5"]]
    element = MoebiusElement(written)
    assert (element.a, element.b, element.c, element.d) == (6, -9, -8, 60)
    assert MoebiusElement._from_ratios([(1, 2), (-3, 4), (2, -3), (5, 1)]) == element
    assert MoebiusElement([[Fraction(1, 2), Fraction(-3, 4)], [Fraction(-2, 3), 5]]) == element
    with pytest.raises(InputError, match="Moebius matrix must have nonzero determinant"):
        MoebiusElement._from_ratios([(1, 2), (1, 3), (3, -1), (-2, 1)])


# ---------------------------------------------------------------------------
# Reference: points as u + v*sqrt(r) in Fraction pairs and the action as
# (a t + b)/(c t + d) in that arithmetic, independent of the integer forms
# of exact.ProjPoint.  None is infinity; r is None on a rational point.
# ---------------------------------------------------------------------------


class Quad(NamedTuple):
    u: Fraction
    v: Fraction
    r: int | None


def q_mul(x: Quad, y: Quad) -> Quad:
    r = x.r if x.r is not None else y.r
    return Quad(x.u * y.u + x.v * y.v * (r or 0), x.u * y.v + x.v * y.u, r)


def q_inverse(x: Quad) -> Quad:
    n = x.u * x.u - x.v * x.v * (x.r or 0)
    return Quad(x.u / n, -x.v / n, x.r)


def reference_apply(g: MoebiusElement, t: Quad | None) -> Quad | None:
    (a, b), (c, d) = g.matrix
    if t is None:
        return None if c == 0 else Quad(a / c, Fraction(0), None)
    numerator = Quad(a * t.u + b, a * t.v, t.r)
    denominator = Quad(c * t.u + d, c * t.v, t.r)
    if not denominator.u and not denominator.v:
        return None
    return q_mul(numerator, q_inverse(denominator))


def reference_fixed_points(g: MoebiusElement) -> list[Quad | None]:
    """The roots (a - d +- k*sqrt(r))/2c of c t^2 + (d - a) t - b for the
    integer entries, with D = (d - a)^2 + 4bc = k^2 r; infinity when c == 0."""
    a, b, c, d = g.a, g.b, g.c, g.d
    if c == 0:
        return [None] + ([Quad(Fraction(b, d - a), Fraction(0), None)] if a != d else [])
    k, r = squarefree_decompose((d - a) ** 2 + 4 * b * c)
    if r == 1:
        return list({Quad(Fraction(a - d + s * k, 2 * c), Fraction(0), None) for s in (1, -1)})
    return [Quad(Fraction(a - d, 2 * c), Fraction(s * k, 2 * c), r) for s in (1, -1)]


def reference_key(t: Quad | None):
    if t is None:
        return (1, (0, (1, 1), (0, 1)))
    return (0, ((t.r or 0) if t.v else 0, (t.u.numerator, t.u.denominator), (t.v.numerator, t.v.denominator)))


def reference_str(t: Quad | None) -> str:
    if t is None:
        return "inf"
    if not t.v:
        return rat_str(t.u)
    coeff = "" if t.v == 1 else ("-" if t.v == -1 else rat_str(t.v) + "*")
    term = f"{coeff}sqrt({t.r})"
    if not t.u:
        return term
    return rat_str(t.u) + ("" if term.startswith("-") else "+") + term


def reference_value(t: Quad | None):
    """What decides equality: u, v^2 r and the sign of v, which every r a
    value is written over shares."""
    return None if t is None else (t.u, t.v * t.v * (t.r or 0), t.v > 0)


@functools.cache
def reference_point(t: Quad | None) -> ProjPoint:
    # cached: the public constructor reduces r by trial division, which takes
    # milliseconds on the big fields
    return ProjPoint.infinity() if t is None else ProjPoint.from_affine(t.u, t.v, t.r if t.v else None)


def reference_exceptional_orbits(group: MoebiusGroup) -> list[tuple[int, list[str]]]:
    """(stabilizer order, printed points) of each orbit of fixed points, each
    built from the first fixed point met in group order, as a report lists them."""
    orbits, covered = [], set()
    for g in group:
        if g.is_identity():
            continue
        for p in sorted(reference_fixed_points(g), key=reference_key):
            if reference_value(p) in covered:
                continue
            orbit = {}
            for h in group:
                image = reference_apply(h, p)
                orbit.setdefault(reference_value(image), image)
            covered.update(orbit)
            points = sorted(orbit.values(), key=reference_key)
            orbits.append((len(points), [reference_key(q) for q in points], group.order // len(points),
                           [reference_str(q) for q in points]))
    orbits.sort(key=lambda o: (o[0], o[1]))
    return [(stabilizer, printed) for _, _, stabilizer, printed in orbits]


def random_points(rng) -> list[Quad | None]:
    r = rng.choice((-3, -1, 2, 3, 5))
    t = rat(rng.randint(-9, 9), rng.randint(1, 5))
    v = rat(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return [None, Quad(t, Fraction(0), None), Quad(t, v, r)]


def conjugated_pool(rng, rounds: int) -> list[MoebiusGroup]:
    """The selftest pool, each group conjugated by ``rounds`` random
    matrices of SL2(Z) and GL2(Q) in turn, and the D4 over big fields as it
    is (with a hidden square in one d) and under one conjugation of each
    kind (its big discriminants cost milliseconds each to reduce)."""
    big = d4_over_big_fields()
    out = [big, _conjugate_group(big, sl2z(rng)), _conjugate_group(big, gl2q(rng))]
    for group in _group_pool():
        out += [_conjugate_group(group, sl2z(rng) if k % 2 else gl2q(rng)) for k in range(rounds)]
    return out


def test_integer_action_agrees_with_quadratic_arithmetic():
    """Products, inverses, fixed points and the action on infinity, rational
    points and the quadratic fixed points of C2, C3, C4, C6 (d = 7, -3, -1,
    -3) and of a group over a d with a hidden square, against the Fraction
    pair reference, conjugated by SL2(Z) and GL2(Q)."""
    rng = random.Random(20261018)
    fields = set()
    for group in conjugated_pool(rng, 4):
        points = random_points(rng)
        for g in group:
            if not g.is_identity():
                reference = reference_fixed_points(g)
                fixed = fixed_points(g)
                assert [str(p) for p in fixed] == [reference_str(t) for t in sorted(reference, key=reference_key)]
                assert set(fixed) == {reference_point(t) for t in reference}
                assert all(g.apply(p) == p for p in fixed), g
                points.extend(reference)
        fields.update(t.r for t in points if t is not None and t.v)
        for g in group:
            (a, b), (c, d) = g.matrix
            inverse = MoebiusElement([[d, -b], [-c, a]])
            assert g.inverse() == inverse and g.inverse().matrix == inverse.matrix
            for h in group:
                (e, f), (u, v) = h.matrix
                product = g * h
                rebuilt = MoebiusElement([[a * e + b * u, a * f + b * v], [c * e + d * u, c * f + d * v]])
                assert product == rebuilt and product.matrix == rebuilt.matrix
                assert hash(product) == hash(rebuilt)
            h = rng.choice(group.elements)
            for t in points:
                p = reference_point(t)
                image, expected = g.apply(p), reference_apply(g, t)
                assert image == reference_point(expected) and hash(image) == hash(reference_point(expected)), (g, t)
                assert (str(image), image.sort_key()) == (reference_str(expected), reference_key(expected))
                assert image.d == p.d and (image == ProjPoint.infinity()) == (expected is None)
                twice = (g * h).apply(p)
                assert twice == g.apply(h.apply(p)) and str(twice) == str(g.apply(h.apply(p))), (g, h, t)
    assert {-1, -3, 7, 65537**2 * BIG_PRIME} <= fields


def test_exceptional_orbits_print_as_the_reference():
    """Each exceptional orbit prints the points and stabilizer order that the
    Fraction pair reference gives, in the same order, over every pool group
    under SL2(Z) and GL2(Q) conjugation."""
    rng = random.Random(20261020)
    for group in conjugated_pool(rng, 4):
        got = [(o.stabilizer_order, [str(p) for p in o.points]) for o in exceptional_orbits(group)]
        assert got == reference_exceptional_orbits(group)


def test_proportional_matrices_give_one_element():
    """Ints, Fractions and "p/q" strings (a negative denominator too) of one
    matrix under positive and negative scalings give one element."""
    rng = random.Random(20261019)
    for group in _group_pool():
        for g in _conjugate_group(group, gl2q(rng)):
            entries = [x for row in g.matrix for x in row]
            assert g.sort_key() == tuple((x.numerator, x.denominator) for x in entries)
            for _ in range(3):
                scale = rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                scaled = [x * scale for x in entries]
                lcm = math.lcm(*(x.denominator for x in scaled))
                forms = (
                    scaled,
                    [int(x * lcm) for x in scaled],
                    [str(x) for x in scaled],
                    [f"{-x.numerator}/-{x.denominator}" for x in scaled],
                )
                for form in forms:
                    e = MoebiusElement([form[:2], form[2:]])
                    assert e == g and hash(e) == hash(g)
                    assert e.sort_key() == g.sort_key() and e.matrix == g.matrix and repr(e) == repr(g)


def test_fixed_sublattice_examples():
    rotation = LatticeAutGroup(2, [[[0, -1], [1, -1]]])
    assert fixed_sublattice(rotation) == []
    assert is_symmetric(rotation)
    negation = LatticeAutGroup(2, [[[-1, 0], [0, -1]]])
    assert fixed_sublattice(negation) == []
    assert is_symmetric(negation)
    reflection = LatticeAutGroup(2, [[[1, 0], [0, -1]]])
    assert fixed_sublattice(reflection) == [(1, 0)]
    assert not is_symmetric(reflection)
    trivial = LatticeAutGroup(2, [IntMatrix.identity(2)])
    assert not is_symmetric(trivial)
    assert len(fixed_sublattice(trivial)) == 2


def test_fixed_sublattice_characterizes_fixed_vectors(rng, property_cases):
    pool = [
        LatticeAutGroup(2, [[[0, -1], [1, -1]]]),
        LatticeAutGroup(2, [[[1, 0], [0, -1]]]),
        LatticeAutGroup(2, [[[1, 0], [0, -1]], [[0, 1], [1, 0]]]),
        LatticeAutGroup(3, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]),
        LatticeAutGroup(3, [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]),
    ]
    for _ in range(property_cases):
        group = rng.choice(pool)
        basis = fixed_sublattice(group)
        for v in basis:
            for g in group.generators:
                assert g.apply(v) == tuple(v)
        v = tuple(rng.randint(-5, 5) for _ in range(group.rank))
        if all(g.apply(v) == v for g in group.generators):
            # fixed vectors lie in the span of the saturated basis
            if not basis:
                assert all(x == 0 for x in v)
            else:
                stacked = IntMatrix(list(basis) + [list(v)])
                _, d, _ = smith_normal_form(stacked)
                rank = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i] != 0)
                assert rank == len(basis)


def test_lattice_groups_of_the_largest_finite_orders_close():
    # {1, -1}, the dihedral group of order 12, and the signed permutations of three coordinates
    for generators in (
        [[[-1]]],
        [[[1, -1], [1, 0]], [[0, 1], [1, 0]]],
        [[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    ):
        rank = len(generators[0])
        group = LatticeAutGroup(rank, generators)
        cap = groups.MAX_LATTICE_GROUP_ORDER[rank]
        assert len(groups._close(group.generators, IntMatrix.identity(rank), cap, "")) == cap
        assert fixed_sublattice(group) == []


@pytest.mark.parametrize(
    "generators, message",
    [
        ([[[2, 0], [0, 1]]], "lattice generators must be unimodular"),
        # det's elimination finds no pivot in the first column and returns 0
        ([[[0, 1], [0, 1]]], "lattice generators must be unimodular"),
        ([], "generator list must be nonempty"),
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "generator is not 2x2"),
    ],
    ids=["det-2", "singular", "none", "3x3"],
)
def test_lattice_generator_validation(generators, message):
    with pytest.raises(InputError, match=message):
        LatticeAutGroup(2, generators)
