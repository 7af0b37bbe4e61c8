import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import make_corpus
import pytest

from symfano import cli, polyhedral
from symfano.errors import InputError, InternalError
from symfano.exact import IntMatrix, integer_kernel, smith_normal_form
from symfano.polyhedral import (
    Cone,
    Fan,
    common_refinement,
    dual_cone,
    image_cone,
    is_face,
)
from symfano.quotients import chow_quotient_fan
from symfano.schemas import fixture_path, load_chow
from symfano.selftest import _random_complete_fan, _random_surjection


def cone2(*gens):
    return Cone(2, gens)


def holds(cone, point):
    """Whether the cone holds a point with rational coordinates."""
    return all(sum(a * x for a, x in zip(h, point)) >= 0 for h in cone.halfspaces)


FIRST_ORTHANT = cone2((1, 0), (0, 1))
FULL_PLANE = cone2((1, 0), (-1, 0), (0, 1), (0, -1))
ORIGIN2 = Cone(2, [])
T_JUNCTION = [
    Cone(3, [(-1, -2, 2), (0, 2, -1), (2, -1, 0)]),
    Cone(3, [(-2, 0, 1), (-1, 0, -2), (0, 1, 1)]),
]
# the images of the maximal cones of the chow corpus case three-cones-one-flat:
# two full-dimensional cones and a flat sector between them
_FAN, _PROJECTION = load_chow(make_corpus.THREE_CONES_ONE_FLAT)
THREE_CONES_ONE_FLAT = [image_cone(cone, _PROJECTION) for cone in _FAN.maximal_cones]


def test_dual_examples():
    assert dual_cone(FIRST_ORTHANT) == FIRST_ORTHANT
    assert dual_cone(FULL_PLANE) == ORIGIN2
    assert dual_cone(ORIGIN2) == FULL_PLANE
    d = dual_cone(cone2((1, 0), (1, 2)))
    assert set(d.rays) == {(0, 1), (2, -1)}


def test_double_dual_random(rng, property_cases):
    for _ in range(property_cases):
        rank = rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(0, 4))]
        cone = Cone(rank, gens)
        assert dual_cone(dual_cone(cone)) == cone


@pytest.mark.parametrize(
    "vector",
    [
        (Fraction(1, 2), 1),
        (Fraction(4, 1), 1),
        (1.7, 1),
        (2.0, 1),
        (True, 1),
        (0, False),
        ("3", 1),
        (None, 1),
        (1,),
        (1, 0, 5),
        (0, 0, 0),
    ],
)
@pytest.mark.parametrize("build", [Cone, Cone.from_halfspaces])
def test_cone_constructors_accept_only_int_vectors_of_the_ambient_rank(build, vector):
    with pytest.raises(InputError):
        build(2, [(1, 0), vector])


def test_cone_constructors_keep_big_ints():
    big = 10**40
    assert Cone(2, [(big, 1)]).generators == ((big, 1),)
    halfplane = Cone.from_halfspaces(2, [(big, 1)])
    assert halfplane.rays == ((big, 1),) and halfplane.lineality_basis == ((-1, big),)


def test_cut_examples():
    c = cone2((1, 0), (1, 2))
    assert c._cut(c._inequalities) == c
    second = cone2((-1, 0), (0, 1))
    ray = FIRST_ORTHANT._cut(second._inequalities)
    assert ray.rays == ((0, 1),) and not ray.lineality_basis
    assert c._cut(ORIGIN2._inequalities) == ORIGIN2


def test_image_examples():
    im = image_cone(FIRST_ORTHANT, IntMatrix([[1, -1]]))
    assert im == Cone.from_halfspaces(1, [])  # the whole line
    assert image_cone(FIRST_ORTHANT, IntMatrix.identity(2)) == FIRST_ORTHANT
    im = image_cone(cone2((1, 0), (-1, -1)), IntMatrix([[1, -1]]))
    assert im == Cone(1, [(1,)])


def test_image_membership_random(rng, property_cases):
    for _ in range(property_cases):
        rank, target = rng.randint(1, 3), rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(0, 4))]
        cone = Cone(rank, gens)
        proj = IntMatrix([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(target)])
        image = image_cone(cone, proj)
        for g in cone.generators:
            assert holds(image, proj.apply(g))


def test_lineality_tracking():
    halfplane = Cone.from_halfspaces(2, [(1, 0)])
    assert halfplane.lineality_basis == ((0, 1),)
    assert halfplane.rays == ((1, 0),)
    line = cone2((0, 1), (0, -1))
    assert line.lineality_basis == ((0, 1),) and line.rays == ()
    assert line.dim == 1


def test_faces_of_orthant():
    faces = FIRST_ORTHANT.faces()
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 2]
    for f in faces:
        assert is_face(f, FIRST_ORTHANT)


def _reference_facet_normals(cone):
    """Halfspaces without the pairs h, -h (the equalities)."""
    return tuple(sorted(h for h in cone.halfspaces if tuple(-x for x in h) not in cone.halfspaces))


def _reference_faces(cone):
    """Faces by a double description per facet: cut each face with -h, breadth first."""
    found = {cone.key(): cone}
    frontier = [cone]
    while frontier:
        nxt = []
        for c in frontier:
            for h in _reference_facet_normals(c):
                face = Cone.from_halfspaces(cone.ambient_rank, list(c.halfspaces) + [tuple(-x for x in h)])
                if face.key() not in found:
                    found[face.key()] = face
                    nxt.append(face)
        frontier = nxt
    return sorted(found.values(), key=Cone.key)


def test_faces_and_facet_normals_match_double_description_reference(rng, property_cases):
    with_lines = 0
    for k in range(property_cases):
        rank = rng.randint(2, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, 6))]
        cone = Cone.from_halfspaces(rank, vectors) if k % 2 else Cone(rank, vectors)
        with_lines += bool(cone.lineality_basis)
        assert cone.facet_normals() == _reference_facet_normals(cone)
        faces, expected = cone.faces(), _reference_faces(cone)
        assert [f.key() for f in faces] == [f.key() for f in expected]
        assert [f.generators for f in faces] == [f.generators for f in expected]
        assert all(is_face(f, cone) for f in faces)
    assert 0 < with_lines < property_cases


def _reference_dim(cone):
    """Rank of the generators: their number of columns minus their kernel's."""
    if not cone.generators:
        return 0
    mat = IntMatrix(cone.generators)
    return mat.cols - len(integer_kernel(mat))


def test_dim_matches_the_rank_of_the_generators(rng, property_cases):
    dims = set()
    for k in range(property_cases):
        rank = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, 5))]
        if k % 2:
            cone = Cone.from_halfspaces(rank, vectors)
            # a zero normal cuts nothing
            padded = Cone.from_halfspaces(rank, vectors[: k % 3] + [(0,) * rank] + vectors[k % 3 :])
            assert padded._canonical == cone._canonical
        else:
            cone = Cone(rank, vectors)
        assert cone.dim == _reference_dim(cone), (rank, vectors, k % 2)
        dims.add(cone.dim)
    assert dims == {0, 1, 2, 3, 4}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _random_vectors(rng, rank, count):
    return [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]


def _random_cone(rng, rank):
    """From generators or halfspaces, and now and then one of its faces."""
    vectors = _random_vectors(rng, rank, rng.randint(0, 5))
    cone = Cone.from_halfspaces(rank, vectors) if rng.random() < 0.5 else Cone(rank, vectors)
    return rng.choice(cone.faces()) if rng.random() < 0.25 else cone


def test_resumed_description_equals_the_one_from_the_whole_space(rng, property_cases):
    lines = set()
    for _ in range(property_cases):
        rank = rng.randint(1, 4)
        halfspaces = _random_vectors(rng, rank, rng.randint(0, 7))
        k = rng.randint(0, len(halfspaces))
        head, tail = halfspaces[:k], halfspaces[k:]
        start = polyhedral._dd_from_halfspaces(rank, head)
        resumed = polyhedral._dd_from_halfspaces(rank, tail, start)
        assert resumed == polyhedral._dd_from_halfspaces(rank, halfspaces)
        assert start == polyhedral._dd_from_halfspaces(rank, head)  # left as it was
        cut, whole = Cone.from_halfspaces(rank, head)._cut(tail), Cone.from_halfspaces(rank, halfspaces)
        assert (cut.lineality_basis, cut.rays) == (whole.lineality_basis, whole.rays)
        # the kept zero masks are the ray-halfspace incidences
        lineality, rays, zeros, processed = resumed
        assert zeros == tuple(sum(1 << i for i, h in enumerate(processed) if not _dot(h, r)) for r in rays)
        lines.add(len(lineality))
    assert lines >= {0, 1, 2}


def test_rays_are_nonzero_and_orthogonal_to_the_lineality(rng, property_cases):
    # a ray that a lineality pivot moves keeps its component orthogonal to the
    # old lineality, so no moved ray vanishes and none needs dropping
    for _ in range(property_cases):
        rank = rng.randint(1, 5)
        halfspaces = _random_vectors(rng, rank, rng.randint(0, 8))
        k = rng.randint(0, len(halfspaces))
        start = polyhedral._dd_from_halfspaces(rank, halfspaces[:k])
        for lineality, rays, _, _ in (start, polyhedral._dd_from_halfspaces(rank, halfspaces[k:], start)):
            assert all(any(r) for r in rays)
            assert not any(_dot(r, l) for r in rays for l in lineality)


def test_cut_equals_the_description_of_both_halfspace_forms(rng, property_cases):
    # resuming the description of one cone with the halfspaces of another
    # gives the rays and lineality basis of a description from scratch
    for _ in range(property_cases):
        rank = rng.randint(1, 4)
        a, b = _random_cone(rng, rank), _random_cone(rng, rank)
        meet, both = a._cut(b._inequalities), Cone.from_halfspaces(rank, [*a.halfspaces, *b.halfspaces])
        assert (meet.lineality_basis, meet.rays) == (both.lineality_basis, both.rays)
        assert meet.generators == both.generators


def _reference_is_face(face, cone):
    """Inside ``cone``, and the smallest face of ``cone`` holding it lies in it:
    that face is spanned by the generators of ``cone`` on which every
    halfspace tight at a relative interior point of ``face`` vanishes."""
    point = [sum(col) for col in zip(*face.rays)] or [0] * cone.ambient_rank
    tight = [h for h in cone.halfspaces if _dot(h, point) == 0]
    return cone.contains(face) and all(
        _dot(h, g) >= 0
        for g in cone.generators
        if all(_dot(t, g) == 0 for t in tight)
        for h in face.halfspaces
    )


def test_is_face_agrees_with_the_smallest_face_test(rng, property_cases):
    verdicts = {True: 0, False: 0}
    for _ in range(property_cases):
        rank = rng.randint(1, 4)
        cone, other = _random_cone(rng, rank), _random_cone(rng, rank)
        for face in cone.faces():
            assert is_face(face, cone) and _reference_is_face(face, cone)
        for candidate in [other, cone._cut(other._inequalities), *other.faces()]:
            verdict = is_face(candidate, cone)
            assert verdict == _reference_is_face(candidate, cone)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > property_cases // 4


def test_meet_in_common_face_agrees_with_the_smallest_face_test(rng, property_cases):
    """Random pairs mostly meet in no ray, so pairs that meet in a common
    face with rays come too: two faces of one cone, and its two sides of a
    hyperplane.  The second of each is rebuilt from its generators, so the
    two do not share the cone's list of halfspaces."""
    verdicts = {True: 0, False: 0}
    with_rays = 0
    for _ in range(property_cases):
        rank = rng.randint(1, 4)
        a, b = _random_cone(rng, rank), _random_cone(rng, rank)
        face, other_face = rng.choice(a.faces()), rng.choice(a.faces())
        h = _random_vectors(rng, rank, 1)[0]
        above, below = a._cut([h]), a._cut([tuple(-x for x in h)])
        pairs = [(a, b), (face, Cone(rank, other_face.generators)), (above, Cone(rank, below.generators))]
        for c1, c2 in pairs:
            meet = c1._cut(c2._inequalities)
            verdict = polyhedral._meets_in_common_face(c1, c2)
            assert verdict == (_reference_is_face(meet, c1) and _reference_is_face(meet, c2))
            verdicts[verdict] += 1
            with_rays += verdict and bool(meet.rays)
    assert min(verdicts.values()) > property_cases // 4 and with_rays > property_cases // 4


def _resumed_meets_in_common_face(c1, c2):
    """Reference: the meet by the description of ``c1`` resumed with the
    halfspaces of ``c2``, and a face of both by their zero masks."""
    meet = c1._cut(c2._inequalities)
    return is_face(meet, c1) and is_face(meet, c2)


def _random_full_cone(rng, rank):
    while True:
        cone = Cone(rank, _random_vectors(rng, rank, rng.randint(rank, rank + 1)))
        if cone.dim == rank:
            return cone


def test_meet_of_cells_that_share_cuts_agrees_with_the_resumed_description(rng, property_cases, dd_count):
    """Pairs of cells with opposite cuts in ranks 2 to 4: the two sides of a
    hyperplane in one cone, one side of it in one cone against the other
    side in another, which meet in a T-junction or an overlap as often as
    not, and the cells of a refinement.  A pair is settled by the separation
    argument when its test makes no double description."""
    verdicts, settled, pairs_seen = {True: 0, False: 0}, 0, 0
    for k in range(property_cases):
        rank = 2 + k % 3
        a, b = _random_full_cone(rng, rank), _random_full_cone(rng, rank)
        h = _random_vectors(rng, rank, 1)[0]
        minus = tuple(-x for x in h)
        above, below = (a._cut([h]), b._cut([h])), (a._cut([minus]), b._cut([minus]))
        pairs = [(above[0], below[0]), (above[0], below[1]), (above[1], below[0])]
        if k % 10 == 0:
            cells = list(itertools.combinations(common_refinement([a, b]).maximal_cones, 2))
            pairs += rng.sample(cells, min(len(cells), 20))
        for c1, c2 in pairs:
            expected = _resumed_meets_in_common_face(c1, c2)
            before = dd_count[0]
            verdict = polyhedral._meets_in_common_face(c1, c2)
            assert verdict == expected, (c1, c2)
            verdicts[verdict] += 1
            settled += dd_count[0] == before
            pairs_seen += 1
    assert min(verdicts.values()) > property_cases // 4
    assert pairs_seen // 4 < settled < pairs_seen


def test_validate_rejects_a_t_junction_across_an_opposite_cut():
    """The two cones lie on opposite sides of z = 0 and each has it as a
    cut, but their faces on it differ: the sector of the second is inside
    the quadrant of the first, so the meet is no face of the first."""
    quadrant_above = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    sector_below = Cone(3, [(1, 0, 0), (1, 1, 0), (0, 0, -1)])
    assert (0, 0, 1) in quadrant_above._inequalities and (0, 0, -1) in sector_below._inequalities
    assert not polyhedral._meets_in_common_face(quadrant_above, sector_below)
    with pytest.raises(InputError):
        Fan(3, (quadrant_above, sector_below)).validate()
    with pytest.raises(InputError):
        Fan(3, (sector_below, quadrant_above)).validate()


def test_a_diagonal_section_is_no_face_and_no_meet(dd_count):
    """The rays of ``section`` are two opposite rays of ``pyramid``, so it is
    a diagonal section of it, inside it with some of its rays but no face of
    it: the zero masks say so in the smaller-face case of the meet, in
    ``is_face`` and in the face check of ``validate``."""
    pyramid = Cone(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    section = Cone(3, [(1, 0, 1), (-1, 0, 1)])
    assert set(section.rays) < set(pyramid.rays) and pyramid.contains(section)
    dd_count[:] = [0, 0]
    assert not polyhedral._meets_in_common_face(pyramid, section)
    assert not polyhedral._meets_in_common_face(section, pyramid)
    assert dd_count == [0, 0]
    assert not is_face(section, pyramid)
    with pytest.raises(InputError, match="cone intersection is not a common face"):
        Fan(3, (pyramid, section)).validate()


def test_refinement_validate_rejects_the_merge_it_did_not_check(monkeypatch):
    """With every union accepted by the merge, the greedy merge leaves a
    T-junction in the refinement of ``T_JUNCTION``, and the refinement's own
    ``validate`` must find it."""
    meets, validate = polyhedral._meets_in_common_face, Fan.validate
    monkeypatch.setattr(polyhedral, "_meets_in_common_face", lambda c1, c2: True)

    def checked(fan):
        monkeypatch.setattr(polyhedral, "_meets_in_common_face", meets)
        validate(fan)

    monkeypatch.setattr(Fan, "validate", checked)
    with pytest.raises(InternalError, match="the refinement is not a fan"):
        common_refinement([Cone(3, cone.generators) for cone in T_JUNCTION])


def _assert_state_matches(cone):
    """The kept description has the cone's rays and lineality, and its zero
    masks are the ray-halfspace incidence over the cone's halfspaces."""
    lineality, rays, masks, inequalities = cone._state
    assert inequalities == cone._inequalities
    assert rays == cone.rays and tuple(sorted(lineality)) == cone.lineality_basis
    assert masks == tuple(sum(1 << i for i, h in enumerate(inequalities) if not _dot(h, r)) for r in rays)


def test_kept_description_matches_the_cone_on_every_construction_path(rng, property_cases):
    paths = set()
    for _ in range(property_cases):
        rank = rng.randint(1, 4)
        vectors = _random_vectors(rng, rank, rng.randint(0, 5))
        built, cut_out = Cone(rank, vectors), Cone.from_halfspaces(rank, vectors)
        other = _random_cone(rng, rank)
        proj = IntMatrix([_random_vectors(rng, rank, 1)[0] for _ in range(rng.randint(1, 4))])
        cones = {
            "generators": [built],
            "halfspaces": [cut_out],
            "cut": [cut_out._cut(_random_vectors(rng, rank, rng.randint(1, 2)))],
            "meet": [built._cut(other._inequalities), other._cut(cut_out._inequalities)],
            "faces": [*built.faces(), *cut_out.faces(), *other.faces()],
            "dual": [dual_cone(built), dual_cone(cut_out)],
            "image": [image_cone(built, proj)],
        }
        for path, made in cones.items():
            for cone in made:
                _assert_state_matches(cone)
                paths.add((path, bool(cone.lineality_basis)))
    assert len(paths) == 2 * 7


def test_cones_built_along_different_paths_are_equal_with_equal_keys(rng, property_cases):
    """The lineality basis is part of the key, so it must not depend on the path."""
    lines = 0
    for _ in range(property_cases):
        rank = rng.randint(1, 4)
        a = _random_cone(rng, rank)
        # few halfspaces leave lines, whose basis is the part a path could change
        b = Cone.from_halfspaces(rank, _random_vectors(rng, rank, rng.randint(0, 2)))
        a, b = (a, b) if rng.random() < 0.5 else (b, a)
        meet = a._cut(b._inequalities)
        for cone in (b._cut(a._inequalities), Cone(rank, meet.generators), Cone.from_halfspaces(rank, meet.halfspaces)):
            assert cone == meet and cone.key() == meet.key() and hash(cone) == hash(meet)
        lines += len(meet.lineality_basis) >= 2
    assert lines > property_cases // 20


@pytest.fixture
def dd_count(monkeypatch):
    """[calls, halfspaces processed] of the double description from now on."""
    counted = [0, 0]
    double_description = polyhedral._dd_from_halfspaces

    def counting(rank, new, start=None):
        new = list(new)
        counted[0] += 1
        counted[1] += len(new)
        return double_description(rank, new, start)

    monkeypatch.setattr(polyhedral, "_dd_from_halfspaces", counting)
    return counted


# Budgets are counts, not times: a change that brings back double
# descriptions from the whole space where a known one could be resumed fails.
@pytest.mark.parametrize("name, budget", [("p2-chow", [9, 12]), ("p1xp1-chow", [11, 16])])
def test_chow_fixture_double_description_budget(dd_count, capsys, name, budget):
    assert cli.run(["chow", str(fixture_path(f"{name}.json")), "--json"]) == 0
    capsys.readouterr()
    assert dd_count == budget


def test_refinement_double_description_budget(dd_count):
    assert len(common_refinement(T_JUNCTION).maximal_cones) == 10
    assert dd_count == [50, 122]


# Adjacent cells that share a cut meet by the separation argument, and cells
# that meet in a smaller face than their shared cut by the zero masks of the
# bigger one, with no double description: a change that brings back one per
# pair fails.
def test_refinement_validate_double_description_budget(dd_count):
    fan = common_refinement([Cone(3, cone.generators) for cone in T_JUNCTION])
    dd_count[:] = [0, 0]
    Fan(fan.ambient_rank, fan.cones).validate()
    assert len(fan.maximal_cones) == 10 and dd_count == [0, 0]


def test_flat_input_double_description_budget(dd_count):
    # the flat sector cuts nothing: with its cuts, 14 maximal cells
    assert len(common_refinement(THREE_CONES_ONE_FLAT).maximal_cones) == 6
    assert dd_count == [33, 66]


@pytest.fixture
def dot_count(monkeypatch):
    """[calls] of the dot product from now on."""
    counted = [0]
    dot = polyhedral._dot

    def counting(u, v):
        counted[0] += 1
        return dot(u, v)

    monkeypatch.setattr(polyhedral, "_dot", counting)
    return counted


# Face tests read the zero masks of the double description: a change that
# brings back a dot product per ray and halfspace fails.  The dot products
# of ``validate`` are those of ``maximal_cones``.  The inputs are built
# afresh, so no earlier test has computed their descriptions.
def test_refinement_dot_product_budget(dot_count):
    fan = common_refinement([Cone(3, cone.generators) for cone in T_JUNCTION])
    refined = dot_count[0]
    Fan(fan.ambient_rank, fan.cones).validate()
    assert [refined, dot_count[0] - refined] == [773, 1214]


# Cells that no input can hold are neither cut further nor kept, and the
# owners of a cell are read off its sign vector.  The inputs are built inside
# the test, so no earlier test has computed their descriptions.
@pytest.mark.parametrize(
    "inputs, budget",
    [
        # two opposite sectors: two of the four sign cells lie in no input
        (lambda: [cone2((1, 0), (1, 1)), cone2((-1, 0), (-1, -1))], [7, 8]),
        # an orthant and its negative: six of the eight orthants lie in no input
        (lambda: [Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), Cone(3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])], [9, 12]),
    ],
    ids=["opposite-sectors", "opposite-orthants"],
)
def test_refinement_budget_with_cells_outside_every_input(dd_count, rng, inputs, budget):
    cones = inputs()
    fan = common_refinement(cones)
    assert dd_count == budget
    assert fan.maximal_cones == tuple(sorted(cones, key=Cone.key))
    _assert_refines(fan, cones, rng)


@pytest.mark.parametrize(
    "inputs, cells, budget",
    [
        # only flat inputs: no input can hold a cell, so the split starts with none
        (lambda: [cone2((1, 0)), cone2((1, 1), (-1, -1))], [], [0, 0]),
        # the whole plane: no hyperplane, and the one cell
        (lambda: [Cone.full_space(2)], [Cone.full_space(2)], [3, 4]),
        # a single input: every cell beside it lies in no input
        (lambda: [cone2((1, 0), (1, 2))], [cone2((1, 0), (1, 2))], [4, 4]),
    ],
    ids=["only-flat", "full-space", "single-input"],
)
def test_refinement_at_the_edges_of_the_owner_masks(dd_count, rng, inputs, cells, budget):
    cones = inputs()
    fan = common_refinement(cones)
    assert dd_count == budget
    assert fan.maximal_cones == tuple(cells)
    _assert_refines(fan, [c for c in cones if c.dim == fan.ambient_rank], rng)


@pytest.mark.parametrize(
    "cones",
    [
        T_JUNCTION,
        THREE_CONES_ONE_FLAT,
        [Cone.from_halfspaces(2, [(1, 0)]), Cone.from_halfspaces(2, [(0, 1)])],
        [cone2((-3, -1), (0, -1), (3, 1)), cone2((1, 1), (3, 1))],
    ],
    ids=["t-junction", "three-cones-one-flat", "halfplanes", "halfplane-meeting-cone-in-a-ray"],
)
def test_refinement_gives_its_cells_as_the_maximal_cones(cones):
    _assert_maximal_cells(common_refinement(cones))


def test_refinement_line():
    fan = common_refinement([Cone.full_space(1), Cone(1, [(1,)]), Cone(1, [(-1,)])])
    assert len(fan.cones) == 3
    keys = {c.key() for c in fan.cones}
    assert Cone(1, [(1,)]).key() in keys and Cone(1, [(-1,)]).key() in keys
    assert Cone(1, []).key() in keys


def test_refinement_halfplanes():
    fan = common_refinement([Cone.from_halfspaces(2, [(1, 0)]), Cone.from_halfspaces(2, [(0, 1)])])
    maximal = {frozenset(c.rays) for c in fan.maximal_cones}
    assert maximal == {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(-1, 0), (0, 1)}),
        frozenset({(1, 0), (0, -1)}),
    }


def test_refinement_single_input_is_identity():
    fan = common_refinement([FIRST_ORTHANT])
    assert len(fan.maximal_cones) == 1 and fan.maximal_cones[0] == FIRST_ORTHANT


def test_refinement_merges_uncut_cells():
    # a cone of another input crossing only the outside of this one must not split it
    small = cone2((1, 0), (1, 1))
    fan = common_refinement([FIRST_ORTHANT, small])
    assert {frozenset(c.rays) for c in fan.maximal_cones} == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(1, 1), (0, 1)}),
    }


def test_refinement_of_17_halfplanes():
    # 2^17 sign patterns, but only 34 nonempty cells; one lies in no input
    cones = [Cone.from_halfspaces(2, [(1, k)]) for k in range(17)]
    fan = common_refinement(cones)
    fan.validate()
    assert len(fan.maximal_cones) == 33


def test_refinement_three_dimensional_t_junction():
    # the greedy merge alone leaves (0, 1, 1) inside another cell's 2-face
    fan = common_refinement(T_JUNCTION)
    fan.validate()
    assert len(fan.maximal_cones) == 10


def test_refinement_halfplane_meeting_cone_in_a_ray():
    # the half-plane {x >= 3y} meets the cone in the ray (3, 1), which is no
    # face of the half-plane, so the half-plane stays cut
    halfplane = cone2((-3, -1), (0, -1), (3, 1))
    cone = cone2((1, 1), (3, 1))
    fan = common_refinement([halfplane, cone])
    fan.validate()
    assert len(fan.maximal_cones) == 3
    assert cone in fan.maximal_cones
    assert all(halfplane.contains(c) for c in fan.maximal_cones if c != cone)


def _assert_maximal_cells(fan):
    """The maximal cones the refinement gave its fan are the ones found by
    definition and by a fresh ``Fan``, in order, and a pickled copy, which
    finds its own, has them too."""
    assert fan.maximal_cones == tuple(_maximal_by_definition(fan.cones))
    assert fan.maximal_cones == Fan(fan.ambient_rank, fan.cones).maximal_cones
    assert pickle.loads(pickle.dumps(fan)).maximal_cones == fan.maximal_cones


def _assert_refines(fan, cones, rng):
    """The union is preserved (random rational points, exact membership), and
    every maximal cell lies inside every input whose interior it meets.

    Once ``validate`` has passed, every cone is a face of a maximal cell, so
    the union of the maximal cells is the union of all cones."""
    rank = fan.ambient_rank
    _assert_maximal_cells(fan)
    for _ in range(20):
        # a point with denominators up to 3, times 6: the cones hold it or not alike
        point = tuple(rng.randint(-9, 9) * 6 // rng.randint(1, 3) for _ in range(rank))
        assert any(holds(c, point) for c in cones) == any(holds(c, point) for c in fan.maximal_cones)
    for cell in fan.maximal_cones:
        interior_point = tuple(sum(g[i] for g in cell.generators) for i in range(rank))
        for cone in cones:
            if holds(cone, interior_point):
                assert cone.contains(cell)


# per rank: the divisor of ``property_cases``, the count of full-dimensional
# inputs, the bound on their generators' entries, and the count of flat inputs
REFINEMENT_FAMILIES = {2: (4, (1, 4), 3, (1, 2)), 3: (10, (1, 3), 2, (1, 2)), 4: (10, (2, 2), 2, (0, 0))}


@pytest.mark.parametrize("rank", REFINEMENT_FAMILIES)
def test_refinement_properties_random(rng, property_cases, rank):
    divisor, inputs, bound, flats = REFINEMENT_FAMILIES[rank]

    def random_cone(generators, dims):
        while True:
            cone = Cone(rank, [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(generators)])
            if cone.dim in dims:
                return cone

    for _ in range(property_cases // divisor):
        cones = [random_cone(rank, (rank,)) for _ in range(rng.randint(*inputs))]
        fan = common_refinement(cones)
        fan.validate()
        # lower-dimensional inputs neither hold nor cut a cell
        flat = [random_cone(rng.randint(1, rank - 1), range(1, rank)) for _ in range(rng.randint(*flats))]
        if flat:
            mixed = cones + flat
            rng.shuffle(mixed)
            assert [c.key() for c in common_refinement(mixed).cones] == [c.key() for c in fan.cones]
        _assert_refines(fan, cones, rng)


def fan_of(cones):
    rank = len(cones[0][0])
    return Fan(rank, tuple(Cone(rank, c) for c in cones))


@pytest.mark.parametrize("rank", (2, 3, 4))
def test_random_complete_fans(rng, property_cases, rank):
    """Each generated fan is complete: it is a fan, its maximal cones are
    full-dimensional, and each facet of one lies in exactly two of them.
    Each generated projection has all its invariant factors 1."""
    for _ in range(property_cases // 10):
        fan = fan_of(_random_complete_fan(rng, rank))
        fan.validate()
        assert all(c.dim == rank for c in fan.maximal_cones)
        facets = Counter(f for c in fan.maximal_cones for f in c.faces() if f.dim == rank - 1)
        assert set(facets.values()) == {2}
        for target in range(1, rank):
            _, d, _ = smith_normal_form(IntMatrix(_random_surjection(rng, rank, target)))
            assert [d[i, i] for i in range(target)] == [1] * target


@pytest.mark.parametrize("rank, target", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_chow_on_random_complete_fans(rng, property_cases, rank, target):
    """``chow`` on generated inputs: no maximal cone has a flat image, and the
    output refines the images, whose union is the target, so it covers the
    target.  Coarseness is not checked."""
    # a 4 -> 3 output has up to about 200 maximal cells, and one case takes up to a few seconds
    for _ in range(property_cases // (100 if target == 3 else 20)):
        fan = fan_of(_random_complete_fan(rng, rank))
        projection = IntMatrix(_random_surjection(rng, rank, target))
        out, flat = chow_quotient_fan(fan, projection)
        assert flat == ()
        _assert_refines(out, [image_cone(c, projection) for c in fan.maximal_cones], rng)


def test_fan_validate_counts_equal_cones_once():
    Fan(2, (FIRST_ORTHANT, FIRST_ORTHANT)).validate()
    assert Fan(2, (FIRST_ORTHANT, FIRST_ORTHANT)).maximal_cones == (FIRST_ORTHANT,)


def _maximal_by_definition(cones):
    """Reference: the cones no other cone strictly contains, the first of equals."""
    out = []
    for c in cones:
        if not any(o.contains(c) and not c.contains(o) for o in cones) and c not in out:
            out.append(c)
    return out


def test_fan_maximal_cones_match_pairwise_definition():
    """Random collections in ranks 2 to 4, not closed under faces, with cones
    nested in others of their dimension and repeated (equal, not identical) cones."""
    rng = random.Random(20261018)
    for case in range(90):
        rank = 2 + case % 3
        cones = []
        for _ in range(rng.randint(1, 4)):
            gens = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(1, rank + 1))]
            cone = Cone(rank, gens)
            cones.append(cone)
            if rng.random() < 0.5:
                # the sum of the generators spans, with all but the first, the same space
                inner = [[sum(col) for col in zip(*gens)], *gens[1:]]
                cones.append(Cone(rank, inner))
            if rng.random() < 0.5:
                faces = cone.faces()
                cones.extend(rng.sample(faces, min(2, len(faces))))
        for _ in range(rng.randint(0, 2)):
            copy = rng.choice(cones)
            cones.append(Cone(rank, rng.sample(copy.generators, len(copy.generators))))
        rng.shuffle(cones)
        expected = _maximal_by_definition(cones)
        got = Fan(rank, tuple(cones)).maximal_cones
        assert len(got) == len(expected) and all(g is e for g, e in zip(got, expected)), case


def test_fan_maximal_cones_computed_once():
    fan = common_refinement([FIRST_ORTHANT, cone2((1, 0), (1, 1))])
    assert fan.maximal_cones is fan.maximal_cones


def test_fan_validate_rejects_overlap():
    bad = Fan(2, (FIRST_ORTHANT, cone2((1, 1), (-1, 1))))
    with pytest.raises(InputError):
        bad.validate()


def test_refinement_that_fails_validation_is_an_internal_error(monkeypatch):
    def reject(fan):
        raise InputError("cone intersection is not a common face")

    monkeypatch.setattr(Fan, "validate", reject)
    with pytest.raises(InternalError, match="the refinement is not a fan"):
        common_refinement([FIRST_ORTHANT])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: image_cone(Cone(2, [(1, 0)]), IntMatrix([[1, 0, 0]])), "projection has the wrong number of columns"),
        (lambda: common_refinement([]), "need at least one cone"),
        (lambda: common_refinement([Cone(1, [(1,)]), Cone(2, [(1, 0)])]), "mixed ambient ranks"),
        # without the check, the dot products would cut the longer vectors short
        (lambda: FIRST_ORTHANT.contains(Cone(3, [(1, 0, 5), (0, 1, -7)])), "cannot compare cones of different ambient rank"),
        (lambda: Cone(3, [(1, 0, 5), (0, 1, -7)]).contains(FIRST_ORTHANT), "cannot compare cones of different ambient rank"),
        (lambda: is_face(Cone(3, [(1, 0, 0)]), FIRST_ORTHANT), "cannot compare cones of different ambient rank"),
    ],
    ids=["image-columns", "no-cones", "mixed-ranks", "contains-longer", "contains-shorter", "is-face-ranks"],
)
def test_polyhedral_input_checks(call, message):
    with pytest.raises(InputError, match=message):
        call()
