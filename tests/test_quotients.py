from itertools import combinations

import make_corpus
import pytest

from symfano import exact
from symfano.errors import InputError, NotSurjective, TooManyCoordinates
from symfano.exact import IntMatrix, PositiveCombination
from symfano.polyhedral import Cone, Fan, common_refinement, image_cone
from symfano.quotients import (
    Destabilizer,
    WeightMatrix,
    chow_quotient_fan,
    is_polystable,
    is_polystable_oracle,
    polystable_locus,
    verify_stability_cert,
)
from symfano.rationals import rat
from symfano.schemas import fixture_path, load_chow, load_weights, read_json
from symfano.selftest import product_fan, projective_space_fan

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
    assert ok and isinstance(cert, PositiveCombination) and cert.numerators == ()


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


def _count_simplex_calls(monkeypatch) -> list:
    """The submatrices phase one is run on from now on, one per LP, each as
    the ``IntMatrix`` of the rows it is called with."""
    calls = []
    original = exact._phase_one

    def counted(rows, rhs):
        calls.append(IntMatrix._make(tuple(rows)))
        return original(rows, rhs)

    monkeypatch.setattr(exact, "_phase_one", counted)
    return calls


def test_locus_calls_the_simplex_once_per_nonempty_support(monkeypatch, rng):
    # with pairwise distinct columns every nonempty support has its own
    # submatrix, so its own LP
    calls = _count_simplex_calls(monkeypatch)
    vectors = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b]
    for n in (1, 3, 6, 8):
        calls.clear()
        # a zero column makes supports that a shortcut could settle without the simplex
        columns = [(0, 0)] + rng.sample(vectors, n - 1)
        weights = IntMatrix([[col[i] for col in columns] for i in range(2)])
        rows = polystable_locus(WeightMatrix([f"x{i}" for i in range(n)], weights))
        assert len(rows) == 2**n
        assert len(calls) == 2**n - 1


def test_locus_calls_the_simplex_once_per_distinct_submatrix(monkeypatch, rng):
    calls = _count_simplex_calls(monkeypatch)
    for n in (2, 4, 7, 9):
        calls.clear()
        # few distinct columns, the zero column among them, so supports repeat submatrices
        pool = [(0, 0)] + [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
        columns = [rng.choice(pool) for _ in range(n - 2)] + [pool[0], pool[0]]
        rng.shuffle(columns)
        weights = IntMatrix([[col[i] for col in columns] for i in range(2)])
        rows = polystable_locus(WeightMatrix([f"x{i}" for i in range(n)], weights))
        distinct = {
            tuple(columns[j] for j in support)
            for r in range(1, n + 1)
            for support in combinations(range(n), r)
        }
        assert len(rows) == 2**n
        assert len(calls) == len(distinct) < 2**n - 1
        assert {tuple(zip(*w.entries)) for w in calls} == distinct


def test_locus_matches_the_simplex_on_validated_submatrices(rng):
    for _ in range(60):
        d = rng.randint(1, 4)
        n = rng.randint(2, 9)
        cols = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(n - 2)]
        cols.append([0] * d)
        cols.append(list(rng.choice(cols)))  # a repeated column
        rng.shuffle(cols)
        weights = IntMatrix([[col[i] for col in cols] for i in range(d)])
        # labels out of coordinate order, so the support order is the labels'
        labels = rng.sample([f"x{i}" for i in range(12)], n)
        rows = polystable_locus(WeightMatrix(labels, weights))
        supports = sorted(
            (columns for r in range(n + 1) for columns in combinations(range(n), r)),
            key=lambda columns: [labels[j] for j in columns],
        )
        assert [support for support, _, _ in rows] == [tuple(labels[j] for j in c) for c in supports]
        for (support, verdict, cert), columns in zip(rows, supports):
            if not columns:
                assert (verdict, cert) == (True, PositiveCombination(()))
                continue
            sub = IntMatrix([[row[j] for j in columns] for row in weights.entries])
            expected = exact._decide(sub.entries, {})[1]
            assert cert == expected
            assert verdict == isinstance(expected, PositiveCombination)


def test_locus_cap():
    labels = [f"x{i}" for i in range(21)]
    wm = WeightMatrix(labels, IntMatrix([[1] * 21]))
    with pytest.raises(TooManyCoordinates):
        polystable_locus(wm)


def fan_of(cones):
    rank = len(cones[0][0])
    return Fan(rank, tuple(Cone(rank, c) for c in cones))


def p2_fan():
    return fan_of(projective_space_fan(2))


def test_chow_p2():
    fan, flat = chow_quotient_fan(p2_fan(), IntMatrix([[1, -1]]))
    assert len(fan.cones) == 3 and flat == ()
    keys = {c.key() for c in fan.cones}
    assert Cone(1, [(1,)]).key() in keys
    assert Cone(1, [(-1,)]).key() in keys
    assert Cone(1, []).key() in keys


def test_chow_identity():
    fan, flat = chow_quotient_fan(p2_fan(), IntMatrix.identity(2))
    assert len(fan.maximal_cones) == 3 and flat == ()
    for cone in p2_fan().cones:
        assert any(cone == c for c in fan.maximal_cones)


def test_chow_p1xp1():
    out, flat = chow_quotient_fan(fan_of(product_fan(1, 1)), IntMatrix([[1, 1]]))
    assert len(out.cones) == 3 and flat == ()
    assert len(out.maximal_cones) == 2


def test_chow_p3_drop_one_coordinate():
    # quotient of three-space by the torus scaling the third coordinate: the
    # image cones are the quadrant, the whole plane, and two lower sectors,
    # and the refinement merges back to the standard fan of the plane
    out, flat = chow_quotient_fan(fan_of(projective_space_fan(3)), IntMatrix([[1, 0, 0], [0, 1, 0]]))
    assert len(out.maximal_cones) == 3 and flat == ()
    for cone in p2_fan().cones:
        assert any(cone == c for c in out.maximal_cones)


def test_chow_project_to_factor():
    out, flat = chow_quotient_fan(fan_of(product_fan(1, 1)), IntMatrix([[1, 0]]))
    assert len(out.cones) == 3 and flat == ()  # both halflines and the origin


def test_chow_quotient_fan_names_the_maximal_cones_with_flat_images():
    orthant, ray = Cone(2, [(1, 0), (0, 1)]), Cone(2, [(-1, -1)])
    fan = Fan(2, (orthant, ray))
    out, flat = chow_quotient_fan(fan, IntMatrix.identity(2))
    assert flat == (ray,) and len(out.maximal_cones) == 1
    assert chow_quotient_fan(fan, IntMatrix([[1, 0]]))[1] == ()
    assert chow_quotient_fan(Fan(2, (orthant,)), IntMatrix([[1, -1], [0, 1]]))[1] == ()
    assert chow_quotient_fan(Fan(2, (ray,)), IntMatrix.identity(2)) == (Fan(2, ()), (ray,))


def test_flat_image_neither_holds_nor_cuts_a_cell():
    # the chow corpus case three-cones-one-flat: the middle cone's image is flat
    fan, projection = load_chow(make_corpus.THREE_CONES_ONE_FLAT)
    first, flat, last = fan.maximal_cones
    out, flat_images = chow_quotient_fan(fan, projection)
    assert flat_images == (flat,)
    out.validate()
    full = common_refinement([image_cone(first, projection), image_cone(last, projection)])
    assert [c.key() for c in out.cones] == [c.key() for c in full.cones]
    assert (len(out.cones), len(out.maximal_cones)) == (30, 6)


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
    # the origin's orbit is closed, and only the two certificate types certify
    assert not verify_stability_cert(HYP, (), Destabilizer((1, 0)))
    for cert in ("not a certificate", None, (1, 1, 1)):
        assert verify_stability_cert(HYP, cols, cert) is False


def test_verify_stability_cert_rejects_what_each_clause_alone_rejects():
    """Each certificate here fails one clause of the check and would pass
    the others, so each clause has a certificate that only it rejects."""
    weights, _ = load_weights(read_json(fixture_path("hyp12-deform.json")))
    halves = WeightMatrix(("a", "b"), IntMatrix([[1, -2]]))
    # one entry too few, and one too many: cut to the shorter vector by
    # ``zip``, each pairs as (1, 1) with the two columns
    assert not verify_stability_cert(weights, ("beta", "gamma"), Destabilizer((1,)))
    assert not verify_stability_cert(weights, ("alpha", "beta"), Destabilizer((-1, -1, 5)))
    # pairs as (-2, 1): positive with one column, negative with the other
    assert not verify_stability_cert(weights, ("alpha", "beta"), Destabilizer((1, 0)))
    # three coefficients for two columns, whose first two balance them
    assert not verify_stability_cert(halves, ("a", "b"), PositiveCombination((2, 1, 7)))
    # a negative denominator makes every lambda_i negative
    assert not verify_stability_cert(halves, ("a", "b"), PositiveCombination._make((2, 1), -1))
    assert verify_stability_cert(halves, ("a", "b"), PositiveCombination((2, 1)))
    assert verify_stability_cert(weights, ("alpha", "beta"), Destabilizer((-1, -1)))
    for support, _, cert in polystable_locus(weights):
        assert verify_stability_cert(weights, support, cert)


@pytest.mark.parametrize("vector", [(-0.5, -0.5), (True, 0), (1.0,)])
def test_a_destabilizer_takes_integers_only(vector):
    # a one-parameter subgroup is an integer vector: without this check the
    # half-integer (-0.5, -0.5) certified (alpha, beta) of hyp12-deform
    with pytest.raises(InputError, match="witness entry .* is not an int"):
        Destabilizer(vector)


def test_a_destabilizer_built_from_a_list_is_the_one_built_from_its_tuple():
    listed, tupled = Destabilizer([-1, -1]), Destabilizer((-1, -1))
    assert listed.vector == (-1, -1) and listed == tupled and hash(listed) == hash(tupled)
    assert verify_stability_cert(HYP, ("alpha", "beta"), listed)


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


def test_chow_projection_must_match_the_fan():
    with pytest.raises(InputError, match="projection columns must match the fan's ambient rank"):
        chow_quotient_fan(p2_fan(), IntMatrix([[1, 0, 0]]))
