import copy
import json
import pickle
import random
import re
from fractions import Fraction
from itertools import count

import pytest
from make_corpus import GROUPS

from symfano.curvepair import (
    NEG_INFINITY,
    LctResult,
    MarkedCurvePair,
    OrbitClass,
    finite_degree,
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
    PreconditionError,
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
from symfano.selftest import _random_variety, sl2z
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
        positive = {p for p, c in boundary(v) if c is not NEG_INFINITY and c > 0}
        assert positive == set(non_reduced_fibers(v))


def test_a_fiber_without_divisors_is_a_declared_gap():
    fibers = (Fiber(pt(0), ()), Fiber(INF, (VerticalDivisor("w", 2),)))
    v = trivial_symmetry_variety(fibers)
    assert v.fibers[0].multiplicity == 0
    b = boundary(v)
    assert b.coefficient(pt(0)) is NEG_INFINITY
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
        assert [c is NEG_INFINITY for _, c in clone] == [c is NEG_INFINITY for _, c in value]


def _derived_state(value):
    """What a value computes from its fields instead of storing, or None."""
    if isinstance(value, IntMatrix):
        return value.rows, value.cols
    if isinstance(value, WeightMatrix):
        return value.torus_rank
    if isinstance(value, CxOneVariety):
        try:
            verdict = ke_verdict(value)
        except PreconditionError as error:  # the case's declared gap blocks every route
            verdict = type(error), str(error)
        return value.permutations, value.marked_orbits, verdict
    if isinstance(value, Cone):
        return value.rays, value.lineality_basis, value.faces()
    return None


@pytest.mark.parametrize("method", list(_CLONES))
@pytest.mark.parametrize(
    "value",
    [v for v in _value_type_cases() if _derived_state(v) is not None],
    ids=lambda v: type(v).__name__,
)
def test_copies_keep_the_derived_attributes(value, method):
    # a copy is built from the fields alone, so whatever else a value offers
    # must be computed from them
    assert _derived_state(_CLONES[method](value)) == _derived_state(value)


@pytest.mark.parametrize("name", ["bidegree12", "p2-cstar", "quadric", "quadric-blowup"])
def test_the_same_document_loads_to_equal_varieties(name):
    data = read_json(fixture_path(name + ".json"))
    first, second = load_variety(data), load_variety(data)
    assert first is not second
    assert first == second and hash(first) == hash(second)


COUNTING_ROUTES = ("three-non-reduced-fibers", "swapped-pair", "fixed-point-free")


def test_explicit_and_declared_actions_agree(property_cases):
    rng = random.Random(20261018)
    routes = set()
    for _ in range(property_cases):
        v = _random_variety(rng)
        points = tuple(f.point for f in v.fibers)
        group = v.moebius_group
        # the equivalent declared input, derived here without the variety's code
        perms = tuple(tuple(points.index(g.apply(p)) for p in points) for g in v.moebius_generators)
        cyclic = any(closure([g]).order == group.order for g in group)
        fields = dict(
            name="random", dim=3, fibers=v.fibers, horizontals=v.horizontals, lattice=v.lattice,
            declared=DeclaredAction(perms, induced_cyclic=cyclic),
        )
        exact = ke_verdict(v)
        routes.add(exact.route)
        if len(points) >= 3 and any(len(p.coords) != 2 for p in points):
            with pytest.raises(InputError, match="three or more fibers needs rational points"):
                CxOneVariety(**fields)
            continue
        d = CxOneVariety(**fields)
        declared = ke_verdict(d)
        if len(points) >= 3:
            # three marked fibers fix the maps: the declaration is the explicit action
            assert d == v and d.explicit_action and declared == exact, points
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
    lattice = LatticeAutGroup(2, [[[0, -1], [1, -1]], [[1, -1], [0, -1]]])
    # two swapped fibers leave the maps open
    v = CxOneVariety(
        name="declared", dim=3, fibers=bidegree_fibers()[:2], horizontals=(),
        lattice=lattice,
        declared=DeclaredAction(((1, 0), (1, 0)), induced_cyclic=False),
    )
    info = glct_info(v)
    assert info.is_lower_bound
    # marked orbit of size 2 gives 2/2/1 = 1; unseen orbits bounded below by 2/1 = 2
    assert info.value == 1
    verdict = ke_verdict(v)
    assert verdict.certified and verdict.route == "swapped-pair"
    assert any("lower bound" in w for w in verdict.warnings)
    # three fibers fix the maps, here those of S3, and the threshold is exact
    v = CxOneVariety(
        name="declared", dim=3, fibers=bidegree_fibers(), horizontals=(),
        lattice=lattice,
        declared=DeclaredAction(((1, 2, 0), (0, 2, 1)), induced_cyclic=False),
    )
    info = glct_info(v)
    assert v.explicit_action and v.moebius_group.order == 6
    assert (info.value, info.is_lower_bound) == (1, False)
    verdict = ke_verdict(v)
    assert verdict.certified and verdict.route == "three-non-reduced-fibers"
    assert verdict.warnings == ()


def test_declared_action_witness_prefers_first_minimal_orbit():
    def declared(name, orders, perms, cyclic):
        fibers = tuple(
            Fiber(pt(i), (VerticalDivisor(f"{name}{i}", m),)) for i, m in enumerate(orders)
        )
        return CxOneVariety(
            name=name, dim=3, fibers=fibers, horizontals=(),
            lattice=LatticeAutGroup(2, NEG_LATTICE * len(perms)),
            declared=DeclaredAction(perms, induced_cyclic=cyclic),
        )

    # two fixed fibers of multiplicity 2: free degree 1, both orbits give 1/2
    info = glct_info(declared("tie", (2, 2), ((0, 1),), True))
    assert (info.value, info.witness) == (rat(1, 2), "declared orbit of 0 (size 1)")
    # an orbit of two reduced fibers ties with the unseen-orbit floor 2/2
    info = glct_info(declared("floor", (1, 1), ((1, 0), (1, 0)), False))
    assert (info.value, info.witness) == (1, "declared orbit of 0 (size 2)")
    # a fixed fiber of multiplicity 2 beats the cyclic floor 1/(3/2)
    info = glct_info(declared("fixed", (2,), ((0,),), True))
    assert (info.value, info.witness) == (rat(1, 3), "declared orbit of 0 (size 1)")


def test_declared_orbits_are_computed_once():
    # two swapped non-reduced fibers: the threshold and the swapped-pair
    # route both read the orbits of the declared permutations
    fibers = tuple(Fiber(pt(i), (VerticalDivisor(f"s{i}", 2),)) for i in range(2))
    v = CxOneVariety(
        name="swap", dim=3, fibers=fibers, horizontals=(), lattice=LatticeAutGroup(2, NEG_LATTICE),
        declared=DeclaredAction(((1, 0),), induced_cyclic=True),
    )
    assert ke_verdict(v).route == "swapped-pair"
    orbits = v.marked_orbits
    assert orbits == ((0, 1),)
    assert v.marked_orbits is orbits
    with pytest.raises(InputError, match="no explicit induced action was given"):
        v.moebius_group


def test_declared_action_cyclic_flag_controls_fixed_point_route():
    fibers = (Fiber(pt(0), (VerticalDivisor("a", 1),)), Fiber(INF, (VerticalDivisor("b", 1),)))
    lattice = LatticeAutGroup(2, NEG_LATTICE)
    free = CxOneVariety(
        name="declfree", dim=3, fibers=fibers, horizontals=(),
        lattice=LatticeAutGroup(2, NEG_LATTICE * 2),
        declared=DeclaredAction(((1, 0), (1, 0)), induced_cyclic=False),
    )
    assert ke_verdict(free).route == "fixed-point-free"
    # a group with one generator is cyclic
    with pytest.raises(InputError, match="declared action has one generator "):
        CxOneVariety(
            name="declone", dim=3, fibers=fibers, horizontals=(),
            lattice=lattice, declared=DeclaredAction(((1, 0),), induced_cyclic=False),
        )
    cyc = CxOneVariety(
        name="declcyc", dim=3, fibers=fibers, horizontals=(),
        lattice=lattice, declared=DeclaredAction(((1, 0),), induced_cyclic=True),
    )
    assert not ke_verdict(cyc).certified
    # a finite group of the line that fixes a point is cyclic
    fixed = (Fiber(pt(0), (VerticalDivisor("a", 2),)),)
    with pytest.raises(InputError, match="declared action fixes the marked point 0 "):
        CxOneVariety(
            name="declfixed", dim=3, fibers=fixed, horizontals=(),
            lattice=lattice, declared=DeclaredAction(((0,),), induced_cyclic=False),
        )


def _two_fibers(**changes):
    """Two reduced fibers swapped by a declared action on a threefold, with ``changes``."""
    fields = dict(
        name="v", dim=3, fibers=(Fiber(pt(0), (VerticalDivisor("a", 1),)), Fiber(INF, (VerticalDivisor("b", 1),))),
        horizontals=(), lattice=LatticeAutGroup(2, NEG_LATTICE), declared=DeclaredAction(((1, 0),), True),
    )
    return CxOneVariety(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(dim=1, lattice=LatticeAutGroup(0, [[]])), "dim must be >= 2"),
        (dict(lattice=LatticeAutGroup(1, [[[-1]]])), "lattice rank must be dim - 1 = 2"),
        (
            dict(declared=None, moebius_generators=(MoebiusElement([[0, 1], [1, 0]]),) * 2),
            "Moebius generators must pair with lattice generators",
        ),
        (dict(declared=DeclaredAction(((1, 0), (1, 0)), True)), "permutations must pair with lattice generators"),
        (dict(declared=DeclaredAction(((0, 0),), True)), "declared permutation is not a bijection of the fibers"),
    ],
    ids=["dim", "lattice-rank", "moebius-count", "permutation-count", "not-a-bijection"],
)
def test_variety_input_checks(changes, message):
    with pytest.raises(InputError, match=message):
        _two_fibers(**changes)
    _two_fibers()  # the unchanged input is accepted


def _cross_ratio(a, b, c, d):
    return Fraction((c - a) * (d - b), (c - b) * (d - a))


def test_declared_orbits_are_those_of_the_generated_group():
    # on fibers over 0..n-1, a declaration is accepted exactly when a group
    # can have it.  With two fibers or fewer the maps stay open: a non-cyclic
    # group fixes no point and has two generators or more.  With three or
    # more, each permutation must keep every cross-ratio, as a Moebius map
    # does, and the group of the maps, which acts faithfully, is cyclic
    # exactly when the permutation group is.
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        perms = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3)))
        # the whole group, closed under composition with the generators
        group, frontier = {tuple(range(n))}, [tuple(range(n))]
        while frontier:
            p = frontier.pop()
            for g in perms:
                q = tuple(g[i] for i in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        orbits = tuple(dict.fromkeys(tuple(sorted({p[i] for p in group})) for i in range(n)))
        sizes = [len(orbit) for orbit in orbits]

        def order(p):
            q, k = p, 1
            while q != tuple(range(n)):
                q, k = tuple(p[i] for i in q), k + 1
            return k

        group_is_cyclic = any(order(p) == len(group) for p in group)
        realised = n <= 2 or all(
            _cross_ratio(0, 1, 2, k) == _cross_ratio(g[0], g[1], g[2], g[k]) for g in perms for k in range(3, n)
        )
        for cyclic in (True, False):
            if not realised:
                ok, rule = False, "through the first three marked fibers sends"
            elif n >= 3:
                ok, rule = cyclic == group_is_cyclic, "the maps through the marked fibers generate a"
            elif cyclic:
                ok, rule = True, None
            elif 1 in sizes:
                ok, rule = False, "fixes the marked point"
            else:
                ok, rule = len(perms) > 1, "has one generator"
            outcomes.add((n >= 3, cyclic, ok))
            fields = dict(
                name="orbits", dim=3, fibers=tuple(Fiber(pt(i), (VerticalDivisor(f"d{i}", 1),)) for i in range(n)),
                horizontals=(), lattice=LatticeAutGroup(2, NEG_LATTICE * len(perms)),
                declared=DeclaredAction(perms, induced_cyclic=cyclic),
            )
            if ok:
                v = CxOneVariety(**fields)
                assert v.marked_orbits == orbits, perms
                assert v.explicit_action == (n >= 3) and v.permutations == perms, perms
            else:
                with pytest.raises(InputError, match=rule):
                    CxOneVariety(**fields)
    # every outcome but a rejected cyclic declaration on two fibers or fewer
    everything = {(many, cyclic, ok) for many in (True, False) for cyclic in (True, False) for ok in (True, False)}
    assert outcomes == everything - {(False, True, False)}


def test_a_declared_symmetric_group_is_checked_within_bounds(tmp_path, run_bounded):
    # an n-cycle and a transposition generate S_n, of n! elements, which no
    # group of the line has: on 12 fibers the map through the first three
    # is found to miss a declared image without building a group
    n = 12
    document = {
        "name": "s12", "dim": 3, "fano": True, "log_terminal": True,
        "fibers": [{"point": [str(i), "1"], "divisors": [{"name": f"d{i}", "order": 1}]} for i in range(n)],
        "horizontal": [],
        "symmetry": {
            "lattice_generators": NEG_LATTICE * 2,
            "marked_permutations": [[*range(1, n), 0], [1, 0, *range(2, n)]],
            "induced_cyclic": False,
        },
    }
    path = tmp_path / "s12.json"
    path.write_text(json.dumps(document))
    done = run_bounded(["tvar", "check", str(path)])
    message = "s12: the map [[1, 1], [0, 1]] through the first three marked fibers sends 11 to 12, not to 0"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"input error: {message}\n")


def _explicit_document(rng: random.Random, k: int) -> dict:
    """A threefold with three or more fibers on orbits of rational points
    under a pool group conjugated by a random matrix of SL2(Z)."""
    h = sl2z(rng)
    gens = [h * MoebiusElement(g) * h.inverse() for g in GROUPS[k % len(GROUPS)]]
    group = closure(gens)
    special = [o.points for o in exceptional_orbits(group) if all(len(p.coords) == 2 for p in o.points)]
    orders = {}  # one order per orbit
    while len(orders) < 3:
        if special and rng.random() < 0.3:
            orbit = rng.choice(special)
        else:
            orbit = orbit_of(group, pt(rat(rng.randint(-6, 6), rng.randint(1, 3)))).points
        if orders.keys().isdisjoint(orbit):
            orders.update(dict.fromkeys(orbit, rng.choice((1, 1, 2, 3))))
    points = list(orders)
    return {
        "name": f"twin-{k}", "dim": 3, "fano": True, "log_terminal": True,
        "fibers": [
            {"point": [str(x) for x in p.coords], "divisors": [{"name": f"d{i}", "order": orders[p]}]}
            for i, p in enumerate(points)
        ],
        "horizontal": [],
        "symmetry": {
            "lattice_generators": NEG_LATTICE + [[[1, 0], [0, 1]]] * (len(gens) - 1),
            "moebius_generators": [[[str(g.a), str(g.b)], [str(g.c), str(g.d)]] for g in gens],
        },
    }


def test_a_declaration_on_three_fibers_is_its_explicit_twin(tmp_path, capsys):
    rng = random.Random(20261020)
    for k in range(80):
        explicit = _explicit_document(rng, k)
        points = [ProjPoint(*f["point"]) for f in explicit["fibers"]]
        gens = [MoebiusElement(g) for g in explicit["symmetry"]["moebius_generators"]]
        group = closure(gens)
        declared = json.loads(json.dumps(explicit))
        declared["symmetry"] = {
            "lattice_generators": explicit["symmetry"]["lattice_generators"],
            "marked_permutations": [[points.index(g.apply(p)) for p in points] for g in gens],
            "induced_cyclic": any(closure([g]).order == group.order for g in group),
        }
        assert load_variety(declared) == load_variety(explicit), explicit
        outputs = []
        for twin, document in (("explicit", explicit), ("declared", declared)):
            path = tmp_path / f"{twin}-{k}.json"
            path.write_text(json.dumps(document))
            code = run(["tvar", "check", str(path)] + (["--json"] if k % 2 else []))
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1], explicit


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
        v = _random_variety(rng)
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
