import copy
import pickle
import random
import re
from itertools import count

import pytest

from symfano.curvepair import (
    NEG_INFINITY,
    LctResult,
    MarkedCurvePair,
    OrbitClass,
    finite_degree,
    is_neg_infinity,
    lct_g,
)
from symfano.errors import (
    DegreeError,
    InputError,
    InternalError,
    MorphismHypothesisViolated,
    NotFano,
    NotInvariant,
    NotLogTerminal,
    NotSymmetric,
)
from symfano.exact import IntMatrix, PositiveCombination, ProjPoint, Record, SemipositiveWitness
from symfano.groups import (
    LatticeAutGroup,
    MoebiusElement,
    MoebiusGroup,
    Orbit,
    closure,
    exceptional_orbits,
    orbit_of,
)
from symfano.polyhedral import Cone, Fan
from symfano.quotients import WeightMatrix
from symfano.rationals import rat
from symfano.schemas import fixture_path, load_variety, read_json
from symfano.selftest import _GROUP_GENERATORS, suite_effectivity
from symfano import tvariety
from symfano.cli import run
from symfano.tvariety import (
    CxOneVariety,
    DeclaredAction,
    Fiber,
    GlctInfo,
    KEVerdict,
    VarietyAnalysis,
    VerticalDivisor,
    analyze,
    anticanonical_lift,
    boundary,
    glct,
    glct_info,
    ke_verdict,
    non_reduced_fibers,
)


def pt(t):
    return ProjPoint.from_affine(rat(t))


INF = ProjPoint.infinity()
NEG_LATTICE = [[[-1, 0], [0, -1]]]


def variety(name):
    return load_variety(read_json(fixture_path(name + ".json")))


def bidegree_fibers():
    return (
        Fiber(pt(0), (VerticalDivisor("u0", 1), VerticalDivisor("v0", 2))),
        Fiber(INF, (VerticalDivisor("u1", 1), VerticalDivisor("v1", 2))),
        Fiber(pt(-1), (VerticalDivisor("u2", 1), VerticalDivisor("v2", 2))),
    )


def trivial_symmetry_variety(fibers, horizontals=(), dim=3):
    return CxOneVariety(
        name="test",
        dim=dim,
        fibers=fibers,
        horizontals=horizontals,
        lattice=LatticeAutGroup(dim - 1, NEG_LATTICE if dim == 3 else [[[-1]]]),
        moebius_generators=(MoebiusElement.identity(),),
    )


def test_non_reduced_fibers():
    assert set(non_reduced_fibers(variety("bidegree12"))) == {pt(0), INF, pt(-1)}
    assert set(non_reduced_fibers(variety("quadric"))) == {pt(-1)}
    assert set(non_reduced_fibers(variety("quadric-blowup"))) == {pt(0), INF, pt(-1)}
    assert non_reduced_fibers(variety("p2-cstar")) == ()


def test_boundary():
    b = boundary(variety("bidegree12"))
    assert {(p, c) for p, c in b} == {(pt(0), rat(1, 2)), (INF, rat(1, 2)), (pt(-1), rat(1, 2))}
    assert len(boundary(variety("p2-cstar"))) == 0
    fibers = (Fiber(pt(0), (VerticalDivisor("a", 1), VerticalDivisor("b", 3))),)
    b = boundary(trivial_symmetry_variety(fibers))
    assert list(b) == [(pt(0), rat(2, 3))]


def test_boundary_support_is_non_reduced_locus():
    for name in ("bidegree12", "quadric", "quadric-blowup", "p2-cstar"):
        v = variety(name)
        positive = {p for p, c in boundary(v) if not is_neg_infinity(c) and c > 0}
        assert positive == set(non_reduced_fibers(v))


def test_declared_empty_fiber():
    fibers = (Fiber(pt(0), ()), Fiber(INF, (VerticalDivisor("w", 2),)))
    v = trivial_symmetry_variety(fibers)
    assert v.fibers[0].multiplicity == 0
    b = boundary(v)
    assert is_neg_infinity(b.coefficient(pt(0)))
    assert b.coefficient(INF) == rat(1, 2)
    with pytest.raises(MorphismHypothesisViolated):
        glct(v)
    with pytest.raises(MorphismHypothesisViolated):
        ke_verdict(v)


def test_anticanonical_lift_effectivity():
    v = variety("bidegree12")
    q = {pt(0): rat(1, 2), INF: rat(1, 2), pt(-1): rat(1, 2), pt(1): rat(1, 2)}
    # the marked part is invariant; the extra generic point breaks invariance for S3
    with pytest.raises(NotInvariant):
        anticanonical_lift(v, q)
    vt = trivial_symmetry_variety(bidegree_fibers(), horizontals=("h",))
    lift = anticanonical_lift(vt, q)
    assert lift == {
        "u0": rat(1, 2), "u1": rat(1, 2), "u2": rat(1, 2), "h": 1, f"fiber({pt(1)})": rat(1, 2)
    }
    assert min(lift.values()) >= 0

    lift2 = anticanonical_lift(vt, {pt(1): rat(2)})
    assert lift2["v0"] == -1
    assert min(lift2.values()) < 0

    with pytest.raises(DegreeError):
        anticanonical_lift(vt, {pt(1): rat(1)})


def test_effectivity_suite(rng, property_cases):
    assert suite_effectivity(rng, property_cases) == []


def test_glct_fixtures():
    assert glct(variety("bidegree12")) == 1
    assert glct(variety("quadric")) == rat(1, 3)
    assert glct(variety("quadric-blowup")) == 1


def test_glct_preconditions():
    v = variety("p2-cstar")
    with pytest.raises(NotSymmetric):
        glct(v)
    bad = CxOneVariety(
        name="notfano", dim=3, fibers=bidegree_fibers(), horizontals=(),
        lattice=LatticeAutGroup(2, NEG_LATTICE),
        moebius_generators=(MoebiusElement.identity(),), fano=False,
    )
    with pytest.raises(NotFano):
        glct(bad)
    bad2 = CxOneVariety(
        name="notlt", dim=3, fibers=bidegree_fibers(), horizontals=(),
        lattice=LatticeAutGroup(2, NEG_LATTICE),
        moebius_generators=(MoebiusElement.identity(),), log_terminal=False,
    )
    with pytest.raises(NotLogTerminal):
        glct(bad2)


def test_ke_verdict_fixtures():
    v = ke_verdict(variety("bidegree12"))
    assert v.certified and v.route == "three-non-reduced-fibers"
    v = ke_verdict(variety("quadric-blowup"))
    assert v.certified and v.route == "three-non-reduced-fibers"
    v = ke_verdict(variety("quadric"))
    assert not v.certified and v.route is None
    assert v.details["glct"] == "1/3" and v.details["non_reduced_count"] == 1
    with pytest.raises(NotSymmetric):
        ke_verdict(variety("p2-cstar"))


def test_ke_verdict_swapped_pair_route():
    fibers = (
        Fiber(pt(0), (VerticalDivisor("a", 2),)),
        Fiber(INF, (VerticalDivisor("b", 2),)),
    )
    v = CxOneVariety(
        name="swap", dim=3, fibers=fibers, horizontals=(),
        lattice=LatticeAutGroup(2, NEG_LATTICE),
        moebius_generators=(MoebiusElement([[0, 1], [1, 0]]),),
    )
    verdict = ke_verdict(v)
    assert verdict.certified and verdict.route == "swapped-pair"
    # same fibers with the trivial induced action: no swap, threshold fails too
    v2 = trivial_symmetry_variety(fibers)
    verdict2 = ke_verdict(v2)
    assert not verdict2.certified


def test_ke_verdict_fixed_point_free_route():
    s3_moebius = (MoebiusElement([[-1, -1], [1, 0]]), MoebiusElement([[1, 0], [-1, -1]]))
    s3_lattice = LatticeAutGroup(2, [[[0, -1], [1, -1]], [[1, -1], [0, -1]]])
    fibers = ()
    v = CxOneVariety(
        name="free", dim=3, fibers=fibers, horizontals=(),
        lattice=s3_lattice, moebius_generators=s3_moebius,
    )
    verdict = ke_verdict(v)
    assert verdict.certified and verdict.route == "fixed-point-free"


def test_counting_routes_imply_threshold_one():
    # whenever a counting route certifies and the threshold is defined, it is 1
    for name in ("bidegree12", "quadric-blowup"):
        v = variety(name)
        verdict = ke_verdict(v)
        assert verdict.certified
        assert glct(v) == 1
    fibers = (
        Fiber(pt(0), (VerticalDivisor("a", 2),)),
        Fiber(INF, (VerticalDivisor("b", 2),)),
    )
    v = CxOneVariety(
        name="swap", dim=3, fibers=fibers, horizontals=(),
        lattice=LatticeAutGroup(2, NEG_LATTICE),
        moebius_generators=(MoebiusElement([[0, 1], [1, 0]]),),
    )
    assert ke_verdict(v).certified and glct(v) == 1


@pytest.mark.parametrize("order", [4, 8])
def test_no_counting_route_pins_threshold_at_one_half(order):
    # two non-reduced fibers at the involution's fixed points are never
    # swapped; the tight class is the fixed marked orbit, whose minimand
    # (1 - b)/(2 - 2b) is exactly 1/2 whatever the order, below every
    # dim/(dim+1) bound, so the verdict stays inconclusive
    fibers = (
        Fiber(pt(1), (VerticalDivisor("a", order),)),
        Fiber(pt(-1), (VerticalDivisor("b", order),)),
    )
    v = CxOneVariety(
        name="fixed-pair", dim=2, fibers=fibers, horizontals=(),
        lattice=LatticeAutGroup(1, [[[-1]]]),
        moebius_generators=(MoebiusElement([[0, 1], [1, 0]]),),
    )
    assert glct(v) == rat(1, 2)
    verdict = ke_verdict(v)
    assert not verdict.certified and verdict.route is None


def test_variety_is_immutable_and_closes_its_own_group():
    fibers = (
        Fiber(pt(0), (VerticalDivisor("a", 2),)),
        Fiber(INF, (VerticalDivisor("b", 2),)),
    )
    v = trivial_symmetry_variety(fibers)
    assert glct(v) == rat(1, 2) and not ke_verdict(v).certified
    swap = MoebiusElement([[0, 1], [1, 0]])
    # no constructor argument can hand the variety a group of other generators
    with pytest.raises(TypeError):
        CxOneVariety(
            name="test", dim=3, fibers=fibers, horizontals=(),
            lattice=LatticeAutGroup(2, NEG_LATTICE),
            moebius_generators=(MoebiusElement.identity(),),
            _moebius_group=closure([swap]),
        )
    with pytest.raises(AttributeError, match="immutable"):
        v.moebius_generators = (swap,)
    with pytest.raises(AttributeError, match="immutable"):
        v.moebius_group = closure([swap])
    assert v.moebius_group is v.moebius_group
    assert v.moebius_group.order == 1


def _record_cases():
    """(class, a builder of fresh keyword arguments, a field, another value
    for it) per value record."""
    return [
        (SemipositiveWitness, lambda: dict(vector=(1, 0)), "vector", (0, 1)),
        (OrbitClass, lambda: dict(kind="generic", size=2, coeff=rat(0), orbit=None), "size", 3),
        (LctResult, lambda: dict(value=rat(1, 2), witness=None), "value", rat(1, 3)),
        (MoebiusGroup, lambda: dict(elements=(MoebiusElement.identity(),)), "elements", ()),
        (Orbit, lambda: dict(points=(pt(0),), stabilizer_order=2), "stabilizer_order", 1),
        (Fan, lambda: dict(ambient_rank=1, cones=(Cone(1, [(1,)]),)), "cones", ()),
        (Cone, lambda: dict(ambient_rank=2, generators=[(1, 0), (0, 1)]), "generators", ((5, 5),)),
        (VerticalDivisor, lambda: dict(name="a", order=2), "order", 3),
        (Fiber, lambda: dict(point=pt(0), divisors=()), "point", INF),
        (DeclaredAction, lambda: dict(permutations=((0,),), induced_cyclic=True), "induced_cyclic", False),
        (
            CxOneVariety,
            lambda: dict(name="a", dim=3, fibers=(Fiber(pt(0), (VerticalDivisor("a", 2),)),),
                         horizontals=(), lattice=LatticeAutGroup(2, NEG_LATTICE),
                         declared=DeclaredAction(((0,),), True)),
            "name",
            "b",
        ),
        (GlctInfo, lambda: dict(value=rat(1, 2), is_lower_bound=False, witness=None), "is_lower_bound", True),
        (KEVerdict, lambda: dict(certified=False, route=None, details={}, warnings=()), "certified", True),
        (
            VarietyAnalysis,
            lambda: dict(symmetric=True, boundary=MarkedCurvePair([(pt(0), rat(1, 2))]),
                         non_reduced=(pt(0),), quotient_lct=None, divisor=None,
                         glct=GlctInfo(rat(1, 2), False, None), verdict=KEVerdict(False, None, {}, ())),
            "symmetric",
            False,
        ),
    ]


_CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize(
    "case, method",
    [
        pytest.param(case, method, id=case[0].__name__ + ("" if method == "copy" else f"-{method}"))
        for case in _record_cases()
        for method in _CLONES
    ],
)
def test_value_records_are_immutable_values(case, method):
    cls, make, field, other = case
    record, again = cls(**make()), cls(**make())
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, field, other)
    assert record == again and not record != again
    if cls in (KEVerdict, VarietyAnalysis):  # a dict field, its own or its verdict's
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(again)
    assert record != cls(**{**make(), field: other})
    clone = _CLONES[method](record)
    assert type(clone) is cls and clone == record


def test_a_record_takes_each_field_once_by_position_or_name():
    value, witness = rat(1, 2), "generic orbit"
    record = GlctInfo(value, False, witness)
    assert record == GlctInfo(value=value, is_lower_bound=False, witness=witness)
    assert record == GlctInfo(value, witness=witness, is_lower_bound=False)
    assert (record.value, record.is_lower_bound, record.witness) == (value, False, witness)
    rule = re.escape("GlctInfo takes each of the fields ('value', 'is_lower_bound', 'witness') once")
    for args, named in [
        ((value, False), {}),  # a field missing
        ((value,), {"witness": witness}),  # a field missing between named and positional ones
        ((value, False, witness, 1), {}),  # one positional argument too many
        ((value, False, witness), {"route": None}),  # an unknown field
        ((value, False), {"witness": witness, "value": value}),  # a field given twice
    ]:
        with pytest.raises(TypeError, match=rule):
            GlctInfo(*args, **named)


def _value_type_cases():
    """A value of each type that keeps its own constructors, equality or repr."""
    quadratic = ProjPoint.from_affine(rat(1, 2), rat(-3, 5), 12)
    return [
        pt(rat(-3, 7)),
        quadratic,
        INF,
        IntMatrix([[1, -2, 0], [3, 4, 5]]),
        IntMatrix([]),
        PositiveCombination((rat(1), rat(3, 2), rat(5, 4))),
        PositiveCombination(()),
        MoebiusElement([[0, rat(1, 2)], [-3, 1]]),
        LatticeAutGroup(2, NEG_LATTICE),
        CxOneVariety(
            name="q", dim=2, fibers=(Fiber(quadratic, (VerticalDivisor("a", 2),)), Fiber(INF, ())),
            horizontals=("h",), lattice=LatticeAutGroup(1, [[[-1]]]),
            declared=DeclaredAction(((0, 1),), True),
        ),
        WeightMatrix(("alpha", "beta"), IntMatrix([[1, -1], [0, 2]])),
        MarkedCurvePair([(pt(0), rat(1, 2)), (INF, NEG_INFINITY), (quadratic, rat(-1))]),
        Cone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 2), (0, 3, 1)]),  # a wedge around a line
    ]


@pytest.mark.parametrize("method", list(_CLONES))
@pytest.mark.parametrize("value", _value_type_cases(), ids=lambda v: type(v).__name__)
def test_value_types_round_trip_through_copy_and_pickle(value, method):
    clone = _CLONES[method](value)
    assert type(clone) is type(value) and isinstance(clone, Record)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(clone, clone._fields[0], None)
    assert clone == value and hash(clone) == hash(value)
    assert repr(clone) == repr(value) and str(clone) == str(value)
    if isinstance(value, MarkedCurvePair):  # the -inf marker stays the one marker
        assert [is_neg_infinity(c) for _, c in clone] == [is_neg_infinity(c) for _, c in value]


@pytest.mark.parametrize("name", ["bidegree12", "p2-cstar", "quadric", "quadric-blowup"])
def test_the_same_document_loads_to_equal_varieties(name):
    data = read_json(fixture_path(name + ".json"))
    first, second = load_variety(data), load_variety(data)
    assert first is not second
    assert first == second and hash(first) == hash(second)


COUNTING_ROUTES = ("three-non-reduced-fibers", "swapped-pair", "fixed-point-free")


def _random_explicit_variety(rng: random.Random) -> CxOneVariety:
    """Fibers on a random union of orbits, one multiplicity pattern per orbit."""
    moebius = tuple(MoebiusElement(g) for g in rng.choice(_GROUP_GENERATORS))
    moebius = moebius or (MoebiusElement.identity(),)
    group = closure(moebius)
    candidates = exceptional_orbits(group)
    candidates += [orbit_of(group, pt(t)) for t in rng.sample(range(-5, 6), 3)]
    candidates.append(orbit_of(group, INF))
    fibers = []
    for orbit in rng.sample(candidates, rng.randint(0, 4)):
        if any(f.point in orbit.points for f in fibers):
            continue
        orders = rng.choice(((1,), (2,), (3,), (1, 2), (2, 4)))
        for p in orbit.points:
            base = 2 * len(fibers)
            fibers.append(
                Fiber(p, tuple(VerticalDivisor(f"d{base + i}", o) for i, o in enumerate(orders)))
            )
    return CxOneVariety(
        name="random", dim=3, fibers=tuple(fibers), horizontals=(),
        lattice=LatticeAutGroup(2, NEG_LATTICE * len(moebius)),
        moebius_generators=moebius,
    )


def test_explicit_and_declared_actions_agree(property_cases):
    rng = random.Random(20261018)
    routes = set()
    for _ in range(property_cases):
        v = _random_explicit_variety(rng)
        points = tuple(f.point for f in v.fibers)
        group = v.moebius_group
        # the equivalent declared input, derived here without the variety's code
        perms = tuple(tuple(points.index(g.apply(p)) for p in points) for g in v.moebius_generators)
        cyclic = any(closure([g]).order == group.order for g in group)
        d = CxOneVariety(
            name="random", dim=3, fibers=v.fibers, horizontals=(), lattice=v.lattice,
            declared=DeclaredAction(perms, induced_cyclic=cyclic),
        )
        exact, declared = ke_verdict(v), ke_verdict(d)
        routes.add(exact.route)
        if exact.route in COUNTING_ROUTES or declared.route in COUNTING_ROUTES:
            assert exact.route == declared.route, points
        assert glct(d) <= glct(v), points
        # a counting route forces glct = 1; without one glct <= 1/2 < dim/(dim+1)
        if exact.route is None:
            assert glct(v) <= rat(1, 2) and glct(d) <= rat(1, 2), points
        else:
            assert glct(v) == 1, points
    assert routes >= {None, *COUNTING_ROUTES}


def test_declared_action_lower_bound():
    fibers = bidegree_fibers()
    lattice = LatticeAutGroup(2, [[[0, -1], [1, -1]], [[1, -1], [0, -1]]])
    v = CxOneVariety(
        name="declared", dim=3, fibers=fibers, horizontals=(),
        lattice=lattice,
        declared=DeclaredAction(((1, 2, 0), (0, 2, 1)), induced_cyclic=False),
    )
    info = glct_info(v)
    assert info.is_lower_bound
    # marked orbit of size 3 gives 3; unseen orbits bounded below by 2/(1/2)=4
    assert info.value == 1
    verdict = ke_verdict(v)
    assert verdict.certified and verdict.route == "three-non-reduced-fibers"
    assert any("lower bound" in w for w in verdict.warnings)


def test_declared_action_witness_prefers_first_minimal_orbit():
    lattice = LatticeAutGroup(2, NEG_LATTICE)

    def declared(name, orders, perm, cyclic):
        fibers = tuple(
            Fiber(pt(i), (VerticalDivisor(f"{name}{i}", m),)) for i, m in enumerate(orders)
        )
        return CxOneVariety(
            name=name, dim=3, fibers=fibers, horizontals=(), lattice=lattice,
            declared=DeclaredAction((perm,), induced_cyclic=cyclic),
        )

    # two fixed fibers of multiplicity 2: free degree 1, both orbits give 1/2
    info = glct_info(declared("tie", (2, 2), (0, 1), True))
    assert (info.value, info.witness) == (rat(1, 2), "declared orbit of 0 (size 1)")
    # an orbit of two reduced fibers ties with the unseen-orbit floor 2/2
    info = glct_info(declared("floor", (1, 1), (1, 0), False))
    assert (info.value, info.witness) == (1, "declared orbit of 0 (size 2)")
    # a fixed fiber of multiplicity 2 beats the cyclic floor 1/(3/2)
    info = glct_info(declared("fixed", (2,), (0,), True))
    assert (info.value, info.witness) == (rat(1, 3), "declared orbit of 0 (size 1)")


def test_declared_permutation_group_is_computed_once():
    # two swapped non-reduced fibers: the threshold and the swapped-pair
    # route both read the closure of the declared permutations
    fibers = tuple(Fiber(pt(i), (VerticalDivisor(f"s{i}", 2),)) for i in range(2))
    v = CxOneVariety(
        name="swap", dim=3, fibers=fibers, horizontals=(), lattice=LatticeAutGroup(2, NEG_LATTICE),
        declared=DeclaredAction(((1, 0),), induced_cyclic=True),
    )
    assert ke_verdict(v).route == "swapped-pair"
    group = v.marked_permutation_group
    assert group == ((0, 1), (1, 0))
    assert v.marked_permutation_group is group
    with pytest.raises(InputError, match="no explicit induced action was given"):
        v.moebius_group


def test_declared_action_cyclic_flag_controls_fixed_point_route():
    fibers = (Fiber(pt(0), (VerticalDivisor("a", 2),)),)
    lattice = LatticeAutGroup(2, NEG_LATTICE)
    free = CxOneVariety(
        name="declfree", dim=3, fibers=fibers, horizontals=(),
        lattice=lattice, declared=DeclaredAction(((0,),), induced_cyclic=False),
    )
    assert ke_verdict(free).route == "fixed-point-free"
    cyc = CxOneVariety(
        name="declcyc", dim=3, fibers=fibers, horizontals=(),
        lattice=lattice, declared=DeclaredAction(((0,),), induced_cyclic=True),
    )
    assert not ke_verdict(cyc).certified


def test_construction_validation():
    fibers = bidegree_fibers()
    lattice = LatticeAutGroup(2, NEG_LATTICE)
    # moving a marked point to an unmarked one
    with pytest.raises(NotInvariant):
        CxOneVariety(
            name="bad", dim=3, fibers=fibers, horizontals=(),
            lattice=lattice, moebius_generators=(MoebiusElement([[1, 1], [0, 1]]),),
        )
    # multiplicity mismatch under a declared permutation
    uneven = (
        Fiber(pt(0), (VerticalDivisor("a", 2),)),
        Fiber(INF, (VerticalDivisor("b", 3),)),
    )
    with pytest.raises(NotInvariant):
        CxOneVariety(
            name="bad2", dim=3, fibers=uneven, horizontals=(),
            lattice=lattice, declared=DeclaredAction(((1, 0),), induced_cyclic=True),
        )
    with pytest.raises(InputError):
        CxOneVariety(
            name="bad3", dim=3, fibers=uneven, horizontals=(),
            lattice=lattice, moebius_generators=None, declared=None,
        )
    # duplicate divisor names
    dup = (
        Fiber(pt(0), (VerticalDivisor("a", 1),)),
        Fiber(INF, (VerticalDivisor("a", 1),)),
    )
    with pytest.raises(InputError):
        trivial_symmetry_variety(dup)
    with pytest.raises(InputError):
        VerticalDivisor("zero", 0)


def test_marked_points_are_pairwise_distinct():
    # the schema check refuses a repeated point before a variety is built;
    # the constructor refuses it for the Python API
    fibers = (Fiber(pt(0), (VerticalDivisor("a", 2),)), Fiber(pt(0), (VerticalDivisor("b", 2),)))
    with pytest.raises(InputError, match="^marked points must be pairwise distinct$"):
        trivial_symmetry_variety(fibers)


def test_routes_and_threshold_agree_random(rng, property_cases):
    from symfano.selftest import _random_variety

    threshold = rat(3, 4)  # the random varieties have dim 3
    for _ in range(property_cases):
        v = _random_variety(rng)
        verdict = ke_verdict(v)
        value = glct(v)
        if verdict.certified:
            assert value == 1
        if not verdict.certified:
            assert value <= threshold


def test_glct_matches_direct_lct_on_fixtures():
    for name in ("bidegree12", "quadric", "quadric-blowup"):
        v = variety(name)
        res = lct_g(boundary(v), v.moebius_group)
        assert glct(v) == res.capped_at_one()


@pytest.mark.parametrize(
    "name, divisor, bound",
    [
        ("quadric", {"u0": 3}, rat(1, 3)),
        ("quadric-blowup", {"u0": 1, "u1": rat(1, 2), "v1": rat(1, 2), "u2": rat(1, 2), "v2": rat(1, 2)}, 1),
        ("bidegree12", {f"{x}{i}": rat(2, 3) if x == "u" else rat(1, 3) for x in "uv" for i in range(3)}, 1),
    ],
)
def test_fixture_divisors_bound_the_threshold(name, divisor, bound):
    v = variety(name)
    d = analyze(v).divisor
    assert d == divisor
    assert min(1, 1 / max(d.values())) == bound == glct(v)


def test_generic_tight_class_lifts_the_first_free_orbit():
    # only a trivial group with reduced fibers leaves the generic class tight;
    # t = 0 is marked, so the free orbit lifted is {1}
    fibers = (Fiber(pt(0), (VerticalDivisor("a", 1),)),)
    v = trivial_symmetry_variety(fibers, horizontals=("h",))
    analysis = analyze(v)
    assert analysis.quotient_lct.witness.kind == "generic"
    assert analysis.divisor == {"h": 1, "fiber(1)": 2}
    assert glct(v) == rat(1, 2)


def test_tight_divisor_certifies_the_threshold(property_cases):
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(property_cases):
        v = _random_explicit_variety(rng)
        analysis = analyze(v)
        res = analysis.quotient_lct
        if res.is_infinite:
            assert analysis.divisor is None
            continue
        kinds.add(res.witness.kind)
        group = v.moebius_group
        orbit = res.witness.orbit or next(
            o
            for o in (orbit_of(group, pt(t)) for t in count())
            if o.size == group.order and not set(o.points) & {f.point for f in v.fibers}
        )
        q_y = dict(analysis.boundary)
        for p in orbit.points:
            q_y[p] = q_y.get(p, 0) + (2 - finite_degree(analysis.boundary)) / orbit.size
        # the public lift re-checks the degree and the invariance of q_Y
        d = anticanonical_lift(v, q_y)
        assert d == analysis.divisor and min(d.values()) >= 0
        assert min(1, 1 / max(d.values())) == glct(v)
    assert kinds == {"marked", "exceptional", "generic"}


def test_dropping_the_tight_fiber_is_an_internal_error(monkeypatch, capsys):
    lift = tvariety._lift
    monkeypatch.setattr(
        tvariety, "_lift", lambda v, q_y: lift(v, {p: c for p, c in q_y.items() if p != pt(-1)})
    )
    with pytest.raises(InternalError, match="divisor bound 1 misses the threshold 1/3"):
        glct(variety("quadric"))
    assert run(["tvar", "check", str(fixture_path("quadric.json"))]) == 4
    assert "internal error: quadric: divisor bound 1" in capsys.readouterr().err
