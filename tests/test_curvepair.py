from fractions import Fraction

import pytest

from symfano.curvepair import (
    NEG_INFINITY,
    LctResult,
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


# ---------------------------------------------------------------------------
# the integer comparisons against the documented formulas in Fraction
# ---------------------------------------------------------------------------


def fraction_lct(pair, group):
    """``lct_g`` by its formula: the first minimum of size * (1 - c) / (2 - deg)."""
    deg = sum((c for _, c in pair), Fraction(0))
    classes = orbit_classes(pair, group)
    if deg >= 2:
        return None, None
    best = witness = None
    for cls in classes:
        value = Fraction(cls.size) * (1 - cls.coeff) / (2 - deg)
        if best is None or value < best:
            best, witness = value, cls
    return best, witness


def fraction_valuable(pair, group):
    """``is_valuable`` by its formula: the first class with
    max(c, 0) + (2 - sigma) / size > 1, vacuously none when sigma > 2."""
    classes = orbit_classes(pair, group)
    sigma = sum((c for _, c in pair if c is not NEG_INFINITY and c >= 0), Fraction(0))
    if sigma > 2:
        return True, None
    for cls in classes:
        bound = 0 if cls.coeff is NEG_INFINITY else max(cls.coeff, 0)
        if bound + (2 - sigma) / Fraction(cls.size) > 1:
            return False, cls
    return True, None


def test_integer_comparisons_match_fraction_formulas(rng, property_cases):
    pool = _group_pool()
    for _ in range(property_cases):
        group = rng.choice(pool)
        pair = _random_invariant_pair(rng, group)
        res = lct_g(pair, group)
        assert (res.value, res.witness) == fraction_lct(pair, group)
        assert res.value is None or type(res.value) is Fraction
        assert is_valuable(pair, group) == fraction_valuable(pair, group)


def test_lct_tie_keeps_the_first_class():
    # 0 and infinity are each an orbit of size 1 with coefficient 1/2: both give 1/2
    pair = halves(pt(0), INF)
    res = lct_g(pair, TRIVIAL)
    classes = orbit_classes(pair, TRIVIAL)
    assert res.value == rat(1, 2) and res.witness == classes[0] != classes[1]
    assert (res.value, res.witness) == fraction_lct(pair, TRIVIAL)


def test_lct_degree_exactly_two_is_infinite():
    pair = MarkedCurvePair([(pt(0), rat(2, 3)), (pt(1), rat(2, 3)), (INF, rat(2, 3))])
    assert finite_degree(pair) == 2
    assert lct_g(pair, TRIVIAL) == LctResult(None, None)


def test_is_valuable_sigma_exactly_two_is_not_vacuous():
    # no free mass is left, so every class sits at its own coefficient 2/3 <= 1
    pair = MarkedCurvePair([(pt(0), rat(2, 3)), (pt(1), rat(2, 3)), (INF, rat(2, 3))])
    assert is_valuable(pair, TRIVIAL) == (True, None) == fraction_valuable(pair, TRIVIAL)
    # with a relaxed point the same sigma leaves that point at bound 0 + 0/1
    relaxed = MarkedCurvePair([(pt(0), rat(1)), (pt(1), rat(1)), (INF, NEG_INFINITY)])
    assert is_valuable(relaxed, TRIVIAL) == (True, None) == fraction_valuable(relaxed, TRIVIAL)


def test_is_valuable_class_exactly_at_one_does_not_violate():
    # x -> 1/x swaps 0 and infinity and fixes 1 and -1.  With 1/2 on {0, inf},
    # sigma = 1: the marked class reaches 1/2 + 1/2 = 1 and each fixed point
    # 0 + 1/1 = 1, both exactly 1
    pair = halves(pt(0), INF)
    assert is_valuable(pair, INVOLUTION) == (True, None) == fraction_valuable(pair, INVOLUTION)
    # with 1/3 the marked class is again at 1/3 + 2/3 = 1, a fixed point at 4/3
    thirds = MarkedCurvePair([(pt(0), rat(1, 3)), (INF, rat(1, 3))])
    ok, witness = is_valuable(thirds, INVOLUTION)
    assert not ok and witness.kind == "exceptional"
    assert (ok, witness) == fraction_valuable(thirds, INVOLUTION)


def test_is_valuable_relaxed_and_negative_coefficients_match_formula():
    cases = [
        MarkedCurvePair([(pt(0), NEG_INFINITY), (pt(1), rat(-7, 3)), (INF, rat(1, 2))]),
        MarkedCurvePair([(pt(0), NEG_INFINITY), (pt(1), NEG_INFINITY)]),
        MarkedCurvePair([(pt(0), rat(-1, 2)), (pt(1), rat(1)), (INF, rat(1))]),
        MarkedCurvePair([(pt(t), rat(-1)) for t in (0, 1, 2)]),
    ]
    for pair in cases:
        assert is_valuable(pair, TRIVIAL) == fraction_valuable(pair, TRIVIAL)
    pair = MarkedCurvePair([(pt(1), NEG_INFINITY), (pt(0), rat(-1, 3)), (INF, rat(-1, 3))])
    assert is_valuable(pair, INVOLUTION) == fraction_valuable(pair, INVOLUTION)
