import random

import pytest

from symfano import groups
from symfano.errors import IdentityElement, InputError, NotFiniteWithinCap
from symfano.exact import QE_ONE, QE_ZERO, IntMatrix, ProjPoint, QuadExtScalar, smith_normal_form
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
    orbit_of,
)
from symfano.rationals import rat
from symfano.selftest import _GROUP_GENERATORS, _conjugate_group, _group_pool

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


def test_global_fixed_point_iff_trivial_or_cyclic():
    pool = [closure([MoebiusElement(g) for g in gens]) for gens in _GROUP_GENERATORS]
    pool += [d4(), d6()]
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
    assert {p.x.d for p in (a, b)} == {-1}
    for g in (INVOLUTION, THREE_CYCLE, TRANSPOSITION, rot):
        for p in fixed_points(g):
            assert g.apply(p) == p
    with pytest.raises(IdentityElement):
        fixed_points(MoebiusElement([[3, 0], [0, 3]]))


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


def test_orbit_of():
    trivial = closure([MoebiusElement.identity()])
    orbit = orbit_of(trivial, pt(7))
    assert orbit.points == (pt(7),) and orbit.stabilizer_order == 1
    group = closure([INVOLUTION])
    orbit = orbit_of(group, pt(2))
    assert set(orbit.points) == {pt(2), pt(rat(1, 2))} and orbit.stabilizer_order == 1
    orbit = orbit_of(group, pt(1))
    assert orbit.points == (pt(1),) and orbit.stabilizer_order == 2


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


def reference_apply(g: MoebiusElement, p: ProjPoint) -> ProjPoint:
    """The general formula, through the validating constructor."""
    (a, b), (c, d) = g.matrix
    return ProjPoint(p.x * a + p.y * b, p.x * c + p.y * d)


def random_sl2z(rng) -> MoebiusElement:
    m = IntMatrix.identity(2)
    for _ in range(3):
        k = rng.randint(-3, 3)
        m = m * IntMatrix([[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]])
    return MoebiusElement(m.entries)


def random_points(rng) -> list[ProjPoint]:
    d = rng.choice((-3, -1, 2, 3, 5))
    t = rat(rng.randint(-9, 9), rng.randint(1, 5))
    s = rat(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return [ProjPoint.infinity(), pt(t), ProjPoint.from_affine(QuadExtScalar(t, s, d))]


def test_fast_paths_agree_with_validating_constructors():
    rng = random.Random(20261018)
    for group in _group_pool() + [d4(), d6()]:
        for _ in range(4):
            conjugate = _conjugate_group(group, random_sl2z(rng))
            points = random_points(rng)
            for orbit in exceptional_orbits(conjugate):
                points.extend(orbit.points)
            for g in conjugate:
                (a, b), (c, d) = g.matrix
                inverse = MoebiusElement([[d, -b], [-c, a]])
                assert g.inverse() == inverse and g.inverse().matrix == inverse.matrix
                for h in conjugate:
                    (e, f), (u, v) = h.matrix
                    product = g * h
                    rebuilt = MoebiusElement([[a * e + b * u, a * f + b * v], [c * e + d * u, c * f + d * v]])
                    assert product == rebuilt and product.matrix == rebuilt.matrix
                    assert hash(product) == hash(rebuilt)
                for p in points:
                    image = g.apply(p)
                    expected = reference_apply(g, p)
                    assert image == expected and hash(image) == hash(expected)
                    assert (image.x, image.y) == (expected.x, expected.y)
                    assert image.y in (QE_ZERO, QE_ONE)
                    assert image.is_infinity == (image.y == QE_ZERO)


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


def test_lattice_generator_validation():
    with pytest.raises(InputError):
        LatticeAutGroup(2, [[[2, 0], [0, 1]]])
    with pytest.raises(InputError):
        LatticeAutGroup(2, [])
    with pytest.raises(InputError):
        LatticeAutGroup(2, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
