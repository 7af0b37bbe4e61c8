import sys

import pytest

from symfano import exact
from symfano.errors import InputError, NotSurjective, TooManyCoordinates
from symfano.exact import IntMatrix, PositiveCombination, solve_positive_combination
from symfano.polyhedral import Cone, Fan
from symfano.quotients import (
    Destabilizer,
    WeightMatrix,
    chow_quotient_fan,
    is_polystable,
    is_polystable_oracle,
    lower_dimensional_images,
    polystable_locus,
    verify_stability_cert,
)
from symfano.rationals import rat

HYP = WeightMatrix(("alpha", "beta", "gamma"), IntMatrix([[-2, 1, 1], [1, -2, 1]]))
BLOW = WeightMatrix(("alpha", "beta", "gamma", "delta"), IntMatrix([[-1, 1, -1, 1], [1, -1, -1, 1]]))


def test_is_polystable_examples():
    ok, cert = is_polystable(HYP, ("alpha", "beta", "gamma"))
    assert ok and isinstance(cert, PositiveCombination)
    assert verify_stability_cert(HYP, ("alpha", "beta", "gamma"), cert)

    ok, cert = is_polystable(HYP, ("alpha", "beta"))
    assert not ok and isinstance(cert, Destabilizer)
    assert verify_stability_cert(HYP, ("alpha", "beta"), cert)
    # the canonical destabilizer pairs to (1, 1) against the two columns
    v = cert.vector
    assert [sum(a * b for a, b in zip(v, HYP.column(l))) for l in ("alpha", "beta")] == [1, 1]

    ok, cert = is_polystable(HYP, ())
    assert ok and isinstance(cert, PositiveCombination) and not cert.coefficients


def test_first_family_locus():
    locus = polystable_locus(HYP)
    assert len(locus) == 8
    polystable = [s for s, ok, _ in locus if ok]
    assert polystable == [(), ("alpha", "beta", "gamma")]
    for support, ok, cert in locus:
        assert verify_stability_cert(HYP, support, cert)


def test_second_family_locus_and_oracle():
    locus = polystable_locus(BLOW)
    assert len(locus) == 16
    polystable = {s for s, ok, _ in locus if ok}
    assert polystable == {
        (),
        ("alpha", "beta"),
        ("gamma", "delta"),
        ("alpha", "beta", "gamma", "delta"),
    }
    # mixed strata fail even though one active pair balances
    assert ("alpha", "beta", "gamma") not in polystable
    assert ("alpha", "gamma", "delta") not in polystable
    for support, ok, cert in locus:
        assert verify_stability_cert(BLOW, support, cert)
        assert ok == is_polystable_oracle(BLOW, support)


def test_destabilizer_limit_leaves_orbit():
    """The destabilizer pairs nonnegatively with every active column, so the
    limit exists, and the columns it pairs to zero are a proper subset, so
    the limit leaves the orbit."""
    support = ("alpha", "beta", "gamma")
    ok, cert = is_polystable(BLOW, support)
    assert not ok
    pairings = {l: sum(a * b for a, b in zip(cert.vector, BLOW.column(l))) for l in support}
    assert min(pairings.values()) >= 0
    assert {l for l, p in pairings.items() if p == 0} < set(support)
    for bad in (("nope",), ("alpha", "alpha")):
        with pytest.raises(InputError):
            is_polystable(BLOW, bad)


def test_polystable_unimodular_invariance(rng, property_cases):
    units = [
        IntMatrix([[1, 0], [0, 1]]),
        IntMatrix([[0, 1], [1, 0]]),
        IntMatrix([[1, 1], [0, 1]]),
        IntMatrix([[2, 1], [1, 1]]),
        IntMatrix([[-1, 0], [0, 1]]),
    ]
    for _ in range(property_cases // 2):
        n = rng.randint(1, 5)
        weights = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)])
        labels = [f"x{i}" for i in range(n)]
        wm = WeightMatrix(labels, weights)
        u = rng.choice(units)
        wm2 = WeightMatrix(labels, u * weights)
        support = tuple(l for l in labels if rng.random() < 0.7)
        assert is_polystable(wm, support)[0] == is_polystable(wm2, support)[0]


def test_oracle_equivalence_random(rng, property_cases):
    for _ in range(property_cases):
        d = rng.randint(1, 2)
        n = rng.randint(1, 6)
        weights = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        labels = [f"x{i}" for i in range(n)]
        wm = WeightMatrix(labels, weights)
        verdict, cert = is_polystable(wm, labels)
        assert verdict == is_polystable_oracle(wm, labels)
        assert verify_stability_cert(wm, labels, cert)


def test_locus_calls_the_simplex_once_per_nonempty_support(monkeypatch, rng):
    # the benchmark's exact.simplex_calls counts these calls
    calls = []
    original = exact.solve_positive_combination

    def counted(w):
        calls.append(w)
        return original(w)

    # patch every module namespace that holds the function
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symfano" and getattr(module, "solve_positive_combination", None) is original:
            monkeypatch.setattr(module, "solve_positive_combination", counted)
    for n in (1, 3, 6, 8):
        calls.clear()
        # a zero column makes supports that a shortcut could settle without the simplex
        weights = IntMatrix([[0] + [rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(2)])
        rows = polystable_locus(WeightMatrix([f"x{i}" for i in range(n)], weights))
        assert len(rows) == 2**n
        assert len(calls) == 2**n - 1


def test_locus_matches_the_simplex_on_validated_submatrices(rng):
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(1, 6)
        weights = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        labels = [f"x{i}" for i in range(n)]
        for support, verdict, cert in polystable_locus(WeightMatrix(labels, weights)):
            columns = [labels.index(l) for l in support]
            if not columns:
                assert (verdict, cert) == (True, PositiveCombination(()))
                continue
            sub = IntMatrix([[row[j] for j in columns] for row in weights.entries])
            expected = solve_positive_combination(sub)
            assert cert == expected
            assert verdict == isinstance(expected, PositiveCombination)


def test_locus_cap():
    labels = [f"x{i}" for i in range(21)]
    wm = WeightMatrix(labels, IntMatrix([[1] * 21]))
    with pytest.raises(TooManyCoordinates):
        polystable_locus(wm)


def p2_fan():
    return Fan(
        2,
        (
            Cone(2, [(1, 0), (0, 1)]),
            Cone(2, [(0, 1), (-1, -1)]),
            Cone(2, [(1, 0), (-1, -1)]),
        ),
    )


def test_chow_p2():
    fan = chow_quotient_fan(p2_fan(), IntMatrix([[1, -1]]))
    assert len(fan.cones) == 3
    keys = {c.key() for c in fan.cones}
    assert Cone(1, [(1,)]).key() in keys
    assert Cone(1, [(-1,)]).key() in keys
    assert Cone(1, []).key() in keys


def test_chow_identity():
    fan = chow_quotient_fan(p2_fan(), IntMatrix.identity(2))
    assert len(fan.maximal_cones) == 3
    for cone in p2_fan().cones:
        assert any(cone == c for c in fan.maximal_cones)


def test_chow_p1xp1():
    quadrants = Fan(
        2,
        tuple(
            Cone(2, [(sx, 0), (0, sy)])
            for sx in (1, -1)
            for sy in (1, -1)
        ),
    )
    fan = chow_quotient_fan(quadrants, IntMatrix([[1, 1]]))
    assert len(fan.cones) == 3
    assert len(fan.maximal_cones) == 2


def test_chow_p3_drop_one_coordinate():
    # quotient of three-space by the torus scaling the third coordinate: the
    # image cones are the quadrant, the whole plane, and two lower sectors,
    # and the refinement merges back to the standard fan of the plane
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    from itertools import combinations

    p3 = Fan(3, tuple(Cone(3, list(trip)) for trip in combinations(rays, 3)))
    fan = chow_quotient_fan(p3, IntMatrix([[1, 0, 0], [0, 1, 0]]))
    expected = [
        Cone(2, [(1, 0), (0, 1)]),
        Cone(2, [(0, 1), (-1, -1)]),
        Cone(2, [(1, 0), (-1, -1)]),
    ]
    assert len(fan.maximal_cones) == 3
    for cone in expected:
        assert any(cone == c for c in fan.maximal_cones)


def test_chow_project_to_factor():
    quadrants = Fan(
        2,
        tuple(Cone(2, [(sx, 0), (0, sy)]) for sx in (1, -1) for sy in (1, -1)),
    )
    fan = chow_quotient_fan(quadrants, IntMatrix([[1, 0]]))
    assert len(fan.cones) == 3  # both halflines and the origin


def test_lower_dimensional_images():
    orthant, ray = Cone(2, [(1, 0), (0, 1)]), Cone(2, [(-1, -1)])
    fan = Fan(2, (orthant, ray))
    assert lower_dimensional_images(fan, IntMatrix.identity(2)) == (ray,)
    assert lower_dimensional_images(fan, IntMatrix([[1, 0]])) == ()
    assert lower_dimensional_images(Fan(2, (orthant,)), IntMatrix([[1, -1], [0, 1]])) == ()
    assert len(chow_quotient_fan(fan, IntMatrix.identity(2)).maximal_cones) == 1


def test_verify_stability_cert_rejects_bad_certificates():
    cols = ("alpha", "beta", "gamma")
    assert verify_stability_cert(HYP, cols, PositiveCombination((rat(1), rat(1), rat(1))))
    halves = WeightMatrix(("a", "b"), IntMatrix([[1, -2]]))
    assert verify_stability_cert(halves, ("a", "b"), PositiveCombination((rat(1), rat(1, 2))))
    assert not verify_stability_cert(halves, ("a", "b"), PositiveCombination((rat(1, 2), rat(1, 2))))
    assert not verify_stability_cert(HYP, cols, PositiveCombination((rat(1), rat(1), rat(2))))
    assert not verify_stability_cert(HYP, cols, PositiveCombination((rat(1), rat(1))))
    assert not verify_stability_cert(HYP, cols, PositiveCombination((rat(0), rat(0), rat(0))))
    assert not verify_stability_cert(HYP, ("alpha", "beta"), Destabilizer((0, 0)))
    assert verify_stability_cert(HYP, ("alpha", "beta"), Destabilizer((-1, -1)))


def test_chow_not_surjective():
    with pytest.raises(NotSurjective):
        chow_quotient_fan(p2_fan(), IntMatrix([[2, 0]]))
    with pytest.raises(NotSurjective):
        chow_quotient_fan(p2_fan(), IntMatrix([[1, 0], [0, 1], [0, 0]]))


def test_weight_matrix_validation():
    with pytest.raises(InputError):
        WeightMatrix(("a", "a"), IntMatrix([[1, 2]]))
    with pytest.raises(InputError):
        WeightMatrix(("a",), IntMatrix([[1, 2]]))
    with pytest.raises(InputError):
        is_polystable(HYP, ("alpha", "alpha"))
