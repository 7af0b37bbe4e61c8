import pytest

from symfano.curvepair import (
    NEG_INFINITY,
    MarkedCurvePair,
    finite_degree,
    is_valuable,
    lct_g,
    orbit_classes,
)
from symfano.errors import CoefficientOutOfRange, InputError, NotInvariant
from symfano.exact import ProjPoint
from symfano.groups import MoebiusElement, closure
from symfano.rationals import rat
from symfano.selftest import _group_pool, _random_invariant_pair, lct_oracle

TRIVIAL = closure([])
INVOLUTION = closure([MoebiusElement([[0, 1], [1, 0]])])
S3 = closure([MoebiusElement([[-1, -1], [1, 0]]), MoebiusElement([[1, 0], [-1, -1]])])


def pt(t):
    return ProjPoint.from_affine(rat(t))


INF = ProjPoint.infinity()


def halves(*points):
    return MarkedCurvePair([(p, rat(1, 2)) for p in points])


def test_finite_degree():
    assert finite_degree(halves(pt(0), INF)) == 1
    assert finite_degree(MarkedCurvePair([])) == 0
    pair = MarkedCurvePair([(pt(0), NEG_INFINITY), (pt(1), rat(1, 2))])
    assert finite_degree(pair) == rat(1, 2)
    assert pair.has_neg_infinity


def test_lct_trivial_group():
    res = lct_g(halves(pt(0), INF), TRIVIAL)
    assert res.value == rat(1, 2)
    assert res.witness.kind == "marked" and res.witness.orbit.points == (pt(0),)


def test_lct_involution():
    res = lct_g(halves(pt(0), INF), INVOLUTION)
    assert res.value == 1
    # re-evaluating the minimand at the witness reproduces the value
    w = res.witness
    assert rat(w.size) * (1 - w.coeff) / (2 - finite_degree(halves(pt(0), INF))) == res.value


def test_lct_s3():
    pair = halves(pt(0), pt(-1), INF)
    res = lct_g(pair, S3)
    assert res.value == 3
    # the competing classes: marked orbit 3, stabilizer-3 orbit 4, others larger
    values = sorted(
        rat(c.size) * (1 - c.coeff) / (2 - finite_degree(pair))
        for c in orbit_classes(pair, S3)
    )
    assert values[0] == 3 and values[1] == 4


def test_lct_empty_boundary():
    assert lct_g(MarkedCurvePair([]), TRIVIAL).value == rat(1, 2)


def test_lct_infinite_when_degree_two():
    pair = MarkedCurvePair([(pt(0), rat(1)), (INF, rat(1))])
    res = lct_g(pair, TRIVIAL)
    assert res.is_infinite and res.witness is None
    assert res.capped_at_one() == 1


def test_lct_coefficient_one_gives_zero():
    res = lct_g(MarkedCurvePair([(pt(0), rat(1))]), TRIVIAL)
    assert res.value == 0


def test_lct_preconditions():
    with pytest.raises(NotInvariant):
        lct_g(halves(pt(0)), INVOLUTION)
    with pytest.raises(NotInvariant):
        lct_g(MarkedCurvePair([(pt(0), rat(1, 2)), (INF, rat(1, 3))]), INVOLUTION)
    with pytest.raises(CoefficientOutOfRange):
        lct_g(MarkedCurvePair([(pt(0), rat(3, 2))]), TRIVIAL)
    with pytest.raises(CoefficientOutOfRange):
        lct_g(MarkedCurvePair([(pt(0), NEG_INFINITY)]), TRIVIAL)
    with pytest.raises(InputError):
        MarkedCurvePair([(pt(0), rat(1, 2)), (pt(0), rat(1, 2))])
    with pytest.raises(InputError, match="not a projective point"):
        MarkedCurvePair([((0, 1), rat(1, 2))])


def test_lct_marked_points_over_two_fields(rng):
    # D2 = {t, -t, 2/t, -2/t}: exceptional orbits {0, inf}, {+-sqrt(2)} and {+-sqrt(-2)}
    d2 = closure([MoebiusElement([[-1, 0], [0, 1]]), MoebiusElement([[0, 2], [1, 0]])])
    real = [ProjPoint.from_affine(0, s, 2) for s in (1, -1)]
    imaginary = [ProjPoint.from_affine(0, s, -2) for s in (1, -1)]
    pair = MarkedCurvePair([(p, rat(1, 2)) for p in real] + [(p, rat(1, 4)) for p in imaginary])
    res = lct_g(pair, d2)
    # classes over the free mass 1/2: sqrt(2) orbit 2, sqrt(-2) orbit 3, {0, inf} 4, generic 8
    assert res.value == 2 and res.witness.orbit.points == tuple(sorted(real, key=ProjPoint.sort_key))
    assert res.value == lct_oracle(pair, d2, rng)


def test_lct_marked_exceptional_orbit_uses_marked_coefficient():
    # the fixed points of the involution, marked with coefficient 1/4
    pair = MarkedCurvePair([(pt(1), rat(1, 4)), (pt(-1), rat(1, 4))])
    res = lct_g(pair, INVOLUTION)
    # classes: marked fixed points (1 * 3/4 / (3/2)), generic (2 / (3/2))
    assert res.value == rat(1, 2)
    assert res.witness.kind == "marked" and res.witness.size == 1


def test_lct_quadratic_extension_marked_points():
    # the roots (-1 +- sqrt(-3))/2 of t^2 + t + 1
    omega = [ProjPoint.from_affine(rat(-1, 2), rat(s, 2), -3) for s in (1, -1)]
    pair = MarkedCurvePair([(p, rat(1, 2)) for p in omega])
    cyclic3 = closure([MoebiusElement([[-1, -1], [1, 0]])])
    # each point is separately fixed: two marked orbits of size 1
    assert lct_g(pair, cyclic3).value == rat(1, 2)
    # the transpositions swap them: one marked orbit of size 2, term 2*(1/2)/1
    res = lct_g(pair, S3)
    assert res.value == 1 and res.witness.size == 2


def test_is_valuable_examples():
    ok, witness = is_valuable(halves(pt(0), pt(1), INF), TRIVIAL)
    assert ok and witness is None
    ok, witness = is_valuable(MarkedCurvePair([]), TRIVIAL)
    assert not ok and witness.kind == "generic"
    ok, witness = is_valuable(MarkedCurvePair([(pt(0), NEG_INFINITY)]), TRIVIAL)
    assert not ok
    ok, _ = is_valuable(halves(pt(0), INF), INVOLUTION)
    assert ok


def test_is_valuable_vacuous_above_degree_two():
    pair = MarkedCurvePair([(pt(t), rat(3, 4)) for t in (0, 1, -1)])
    assert finite_degree(pair) > 2
    assert is_valuable(pair, TRIVIAL) == (True, None)


def test_is_valuable_negative_coefficients_relax():
    pair = MarkedCurvePair([(pt(0), rat(-5)), (pt(1), rat(1, 2))])
    ok, witness = is_valuable(pair, TRIVIAL)
    assert not ok  # sigma = 1/2, concentration 0 + 3/2 > 1 at the relaxed point
    assert witness is not None
    ok2, _ = is_valuable(MarkedCurvePair([(pt(1), rat(1, 2))]), TRIVIAL)
    assert ok == ok2 is False  # the negative point changed nothing


def test_is_valuable_matches_lct_at_one(rng, property_cases):
    pool = _group_pool()
    for _ in range(property_cases):
        group = rng.choice(pool)
        pair = _random_invariant_pair(rng, group)
        res = lct_g(pair, group)
        valuable, _ = is_valuable(pair, group)
        assert valuable == (res.is_infinite or res.value >= 1)


def test_lct_matches_oracle(rng, property_cases):
    pool = _group_pool()
    for _ in range(property_cases):
        group = rng.choice(pool)
        pair = _random_invariant_pair(rng, group)
        res = lct_g(pair, group)
        expected = lct_oracle(pair, group, rng)
        assert (None if res.is_infinite else res.value) == expected


def test_witness_reproduces_value(rng, property_cases):
    pool = _group_pool()
    for _ in range(property_cases):
        group = rng.choice(pool)
        pair = _random_invariant_pair(rng, group)
        res = lct_g(pair, group)
        if res.is_infinite:
            assert res.witness is None
            continue
        w = res.witness
        assert rat(w.size) * (1 - w.coeff) / (2 - finite_degree(pair)) == res.value
