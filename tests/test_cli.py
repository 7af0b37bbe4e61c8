import json

import pytest

from symfano import cli, curvepair, exact, tvariety
from symfano.cli import Report, Verdict, run
from symfano.errors import InputError
from symfano.schemas import (
    detect_kind,
    fixture_path,
    load_chow,
    load_lattice,
    load_pair,
    load_variety,
    load_weights,
    read_json,
    validate_data,
)


def fixture(name):
    return str(fixture_path(name))


def run_capture(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------


def test_detect_kind_and_validate_fixtures(fixture_data):
    kinds = {
        "bidegree12.json": "variety",
        "quadric.json": "variety",
        "quadric-blowup.json": "variety",
        "p2-cstar.json": "variety",
        "pair-involution.json": "pair",
        "pair-triangle.json": "pair",
        "hyp12-deform.json": "weights",
        "blowup-deform.json": "weights",
        "p2-chow.json": "chow",
        "p1xp1-chow.json": "chow",
        "lattice-rotation.json": "lattice",
    }
    for name, kind in kinds.items():
        data = fixture_data(name)
        assert detect_kind(data) == kind
        assert validate_data(data) == []


def test_validate_reports_paths(fixture_data):
    data = fixture_data("bidegree12.json")
    data["fibers"][0]["divisors"][1]["order"] = 0
    problems = validate_data(data)
    assert any("fibers[0].divisors[1].order" in p and ">= 1" in p for p in problems)

    data = fixture_data("bidegree12.json")
    data["fibers"][1]["divisors"][0]["name"] = "u0"
    problems = validate_data(data)
    assert any("duplicate divisor name: u0" in p for p in problems)

    data = fixture_data("bidegree12.json")
    del data["symmetry"]["moebius_generators"]
    problems = validate_data(data)
    assert any("symmetry" in p for p in problems)


def test_loaders(fixture_data):
    variety = load_variety(fixture_data("bidegree12.json"))
    assert variety.dim == 3 and len(variety.fibers) == 3
    pair, gens = load_pair(fixture_data("pair-involution.json"))
    assert len(pair) == 2 and len(gens) == 1
    weights, claimed = load_weights(fixture_data("blowup-deform.json"))
    assert weights.coordinates == 4 and len(claimed) == 2
    fan, projection = load_chow(fixture_data("p2-chow.json"))
    assert fan.ambient_rank == 2 and projection.rows == 1
    lattice = load_lattice(fixture_data("lattice-rotation.json"))
    assert lattice.rank == 2
    with pytest.raises(InputError):
        load_pair(fixture_data("bidegree12.json"))


# ---------------------------------------------------------------------------
# report round-trip
# ---------------------------------------------------------------------------


def test_report_round_trip():
    report = Report(subject="demo")
    report.add("claim", True, route="route", certificate={"k": [1, 2]})
    report.add("value", "3/4")
    report.warn("careful")
    text = report.to_json()
    again = Report.from_json(text)
    assert again == report
    assert again.to_json() == text
    assert again != Report("demo") == Report(subject="demo", verdicts=[], warnings=[])
    assert list(vars(again.verdicts[0])) == ["claim", "value", "route", "certificate"]


TEXTS = [
    "",
    "plain",
    'quote " and backslash \\',
    "tab\t newline\n nul\x00 unit\x1f del\x7f",
    "separators \u2028 \u2029",
    "Kähler–Einstein on ℙ¹×ℙ¹ ✓ \U0001f600",
]


def random_tree(rng, depth):
    """A JSON-able tree of str-keyed dicts, lists, tuples and str/int/bool/None/float leaves."""
    leaves = [
        lambda: rng.choice(TEXTS) + rng.choice(TEXTS),
        lambda: rng.randint(-5, 5),
        lambda: rng.choice((-1, 1)) * rng.randrange(10**39, 10**40),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((0.5, -2.5e-8, 1e300)),
    ]
    kind = rng.randrange(9 if depth > 0 else len(leaves))
    if kind < len(leaves):
        return leaves[kind]()
    size = rng.choice((0, 1, 2, 5))
    if kind == 5:
        return {rng.choice(TEXTS) + str(i): random_tree(rng, depth - 1) for i in range(size)}
    if kind == 6:  # one leaf kind, as in a list of coefficients or of labels
        leaf = rng.choice(leaves[:4])
        return [leaf() for _ in range(size)]
    items = [random_tree(rng, depth - 1) for _ in range(size)]
    return items if kind == 7 else tuple(items)


def test_to_json_is_json_dumps_with_indent_2(rng):
    # the byte contract: the text json.dumps writes with indent=2, sorted keys, ensure_ascii off
    for _ in range(400):
        report = Report(
            subject=rng.choice(TEXTS),
            verdicts=[
                Verdict(rng.choice(TEXTS), random_tree(rng, 4), rng.choice((None, "route")), random_tree(rng, 4))
                for _ in range(rng.randint(0, 3))
            ],
            warnings=[rng.choice(TEXTS) for _ in range(rng.randint(0, 2))],
        )
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)
        assert report.to_json() == expected
    for value in ({}, [], (), [True, 1], [1, True], ["a", 1], [None, 0], 0, -0.0, True):
        report = Report("edge", [Verdict("c", value)])
        assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)


def test_cli_json_round_trip(capsys):
    code, out = run_capture(capsys, "tvar", "check", fixture("bidegree12.json"), "--json")
    assert code == 0
    report = Report.from_json(out)
    assert report.subject == "bidegree12"
    assert report.to_dict() == json.loads(out)


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------


def test_tvar_check_fixtures(capsys):
    code, out = run_capture(capsys, "tvar", "check", fixture("bidegree12.json"))
    assert code == 0
    assert "ke_certified: true" in out and "three-non-reduced-fibers" in out

    code, out = run_capture(capsys, "tvar", "check", fixture("quadric.json"))
    assert code == 0
    assert "ke_certified: false" in out and "inconclusive" in out

    code, out = run_capture(capsys, "tvar", "check", fixture("quadric-blowup.json"))
    assert code == 0
    assert "ke_certified: true" in out

    code, out = run_capture(capsys, "tvar", "check", fixture("p2-cstar.json"))
    assert code == 3
    assert "symmetric: false" in out


def test_tvar_check_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, out = run_capture(capsys, "tvar", "check", fixture("bidegree12.json"), "--json")
        outputs.add(out)
    assert len(outputs) == 1


def test_lct_and_valuable(capsys):
    code, out = run_capture(capsys, "lct", fixture("pair-involution.json"))
    assert code == 0 and "lct: 1" in out
    code, out = run_capture(capsys, "lct", fixture("pair-triangle.json"))
    assert code == 0 and "lct: 3" in out
    code, out = run_capture(capsys, "valuable", fixture("pair-involution.json"))
    assert code == 0 and "valuable: true" in out


BIG_INVOLUTIONS = (
    (
        ["1000000000007", "1000000000039"], ["1000000000061", "-1000000000007"],
        "{1000000000007/1000000000061-2/1000000000061*sqrt(500000000028500000000607)}",
    ),
    (
        ["10000000000000000051", "10000000000000000039"],
        ["10000000000000000061", "-10000000000000000051"],
        "{10000000000000000051/10000000000000000061-6/10000000000000000061"
        "*sqrt(5555555555555555611666666666666666805)}",
    ),
)


@pytest.mark.parametrize("row0, row1, orbit", BIG_INVOLUTIONS, ids=("13-digit", "20-digit"))
def test_lct_of_an_involution_with_big_entries(tmp_path, capsys, row0, row1, orbit):
    # the fixed points' discriminant is reduced without factoring it in full
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"name": "big", "points": [], "moebius_generators": [[row0, row1]]}))
    code, out = run_capture(capsys, "lct", str(doc))
    assert code == 0
    assert out == (
        "subject: big\n  group_order: 2\n  lct: 1/2\n"
        f'    certificate: "exceptional orbit {orbit} of size 1 with coefficient 0"\n'
    )


def test_git_polystable(capsys):
    code, out = run_capture(
        capsys, "git", "polystable", fixture("hyp12-deform.json"), "--support", "alpha,beta,gamma"
    )
    assert code == 0 and "polystable: true" in out and "positive-combination" in out
    code, out = run_capture(
        capsys, "git", "polystable", fixture("hyp12-deform.json"), "--support", "alpha,beta"
    )
    assert code == 0 and "polystable: false" in out and "destabilizer" in out
    code, out = run_capture(
        capsys, "git", "polystable", fixture("hyp12-deform.json"), "--support", ""
    )
    assert code == 0 and "polystable: true" in out


def test_git_locus(capsys):
    code, out = run_capture(capsys, "git", "locus", fixture("hyp12-deform.json"))
    assert code == 0
    assert "stated_locus_check: agrees" in out
    assert "polystable_supports" in out

    code, out = run_capture(capsys, "git", "locus", fixture("blowup-deform.json"))
    assert code == 0
    assert "warning:" in out and "disagree" in out
    assert "{alpha, beta, gamma}" in out


def test_chow_subcommand(capsys):
    code, out = run_capture(capsys, "chow", fixture("p2-chow.json"))
    assert code == 0 and "cell_count: 3" in out
    code, out = run_capture(capsys, "chow", fixture("p1xp1-chow.json"))
    assert code == 0 and "cell_count: 3" in out


def test_lattice_symmetric(capsys):
    code, out = run_capture(capsys, "lattice", "symmetric", fixture("lattice-rotation.json"))
    assert code == 0 and "symmetric: true" in out


def test_lattice_symmetric_computes_the_kernel_once(tmp_path, monkeypatch, capsys):
    calls = []
    snf = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", lambda a: calls.append(a) or snf(a))
    code, out = run_capture(capsys, "lattice", "symmetric", fixture("lattice-rotation.json"))
    assert code == 0 and "symmetric: true" in out and len(calls) == 1
    target = tmp_path / "swap.json"
    target.write_text(json.dumps({"name": "swap", "rank": 2, "generators": [[[0, 1], [1, 0]]]}))
    code, out = run_capture(capsys, "lattice", "symmetric", str(target))
    assert code == 0 and "fixed_sublattice_rank: 1" in out and "symmetric: false" in out
    assert len(calls) == 2


def test_validate_subcommand(tmp_path, capsys):
    code, out = run_capture(capsys, "validate", fixture("quadric.json"))
    assert code == 0 and "schema: OK" in out

    bad = tmp_path / "bad.json"
    data = read_json(fixture_path("quadric.json"))
    data["fibers"][2]["divisors"][0]["order"] = 0
    bad.write_text(json.dumps(data))
    code, out = run_capture(capsys, "validate", str(bad))
    assert code == 1 and "order must be >= 1" in out


DROP = object()


def edited(name, edits):
    """The fixture's document with each path set to its value, or removed for DROP."""
    data = read_json(fixture_path(name))
    for path, value in edits.items():
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return data


def declared(**symmetry):
    """quadric.json with the given declared-action keys in place of its Moebius generators."""
    data = edited("quadric.json", {("symmetry", "moebius_generators"): DROP})
    data["symmetry"].update(symmetry)
    return data


MALFORMED = [
    (edited("quadric.json", {("name",): DROP}), "name: missing"),
    (edited("quadric.json", {("fano",): "yes"}), "fano: must be bool"),
    (edited("quadric.json", {("dim",): 1}), "dim: must be >= 2"),
    (edited("quadric.json", {("fibers",): {}}), "fibers: missing or not an array"),
    (edited("quadric.json", {("fibers", 0): 5}), "fibers[0]: must be an object"),
    (edited("quadric.json", {("fibers", 0, "point"): [1]}), "fibers[0].point: must be a pair of rationals"),
    (
        edited("quadric.json", {("fibers", 0, "point"): ["0", "0/5"]}),
        "fibers[0].point: (0, 0) is not a projective point",
    ),
    (
        edited("quadric.json", {("fibers", 1, "divisors"): DROP}),
        "fibers[1].divisors: missing or not an array",
    ),
    (
        edited("quadric.json", {("fibers", 1, "divisors", 0): "u2"}),
        "fibers[1].divisors[0]: must be an object",
    ),
    (
        edited("quadric.json", {("fibers", 1, "divisors", 0, "name"): 2}),
        "fibers[1].divisors[0].name: missing or not a string",
    ),
    (edited("quadric.json", {("horizontal",): [1]}), "horizontal: must be an array of names"),
    (edited("quadric.json", {("symmetry",): []}), "symmetry: missing or not an object"),
    (
        edited("quadric.json", {("symmetry", "lattice_generators"): []}),
        "symmetry.lattice_generators: must be a nonempty array",
    ),
    (
        edited("quadric.json", {("symmetry", "lattice_generators", 0): []}),
        "symmetry.lattice_generators[0]: must be a nonempty array of rows",
    ),
    (
        edited("quadric.json", {("symmetry", "lattice_generators", 0, 1): [0]}),
        "symmetry.lattice_generators[0][1]: ragged row",
    ),
    (
        edited("quadric.json", {("symmetry", "lattice_generators", 0, 1, 1): "-1"}),
        "symmetry.lattice_generators[0][1][1]: must be an integer",
    ),
    (
        edited("quadric.json", {("symmetry", "lattice_generators", 0): [[-1]]}),
        "symmetry.lattice_generators[0]: must be 2x2",
    ),
    (
        edited("quadric.json", {("symmetry", "moebius_generators"): DROP}),
        "symmetry: give either moebius_generators or marked_permutations + induced_cyclic",
    ),
    (
        edited("quadric.json", {("symmetry", "moebius_generators"): []}),
        "symmetry.moebius_generators: one 2x2 matrix per lattice generator",
    ),
    (
        edited("quadric.json", {("symmetry", "moebius_generators", 0, 0, 0): "1/0"}),
        "symmetry.moebius_generators[0][0][0]: must be a rational",
    ),
    (
        declared(marked_permutations=[], induced_cyclic=True),
        "symmetry.marked_permutations: one permutation per lattice generator",
    ),
    (
        declared(marked_permutations=[[0, 0, 1]], induced_cyclic=True),
        "symmetry.marked_permutations[0]: must be a permutation of 0..2",
    ),
    (
        declared(marked_permutations=[[0, 1, 2]]),
        "symmetry.induced_cyclic: missing or not a boolean",
    ),
    (edited("pair-involution.json", {("points",): {}}), "points: missing or not an array"),
    (edited("pair-involution.json", {("points", 1): ["1", "0"]}), "points[1]: must be an object"),
    (
        edited("pair-involution.json", {("points", 1, "pt"): "infinity"}),
        "points[1].pt: must be a pair of rationals",
    ),
    (
        edited("pair-involution.json", {("points", 0, "coeff"): "inf"}),
        'points[0].coeff: must be a rational or "-inf"',
    ),
    (
        edited("pair-involution.json", {("moebius_generators",): []}),
        "moebius_generators: must be a nonempty array",
    ),
    (
        edited("pair-involution.json", {("moebius_generators", 0, 1): [1, 0, 0]}),
        "moebius_generators[0][1]: ragged row",
    ),
    (edited("hyp12-deform.json", {("labels",): []}), "labels: must be a nonempty array of strings"),
    (edited("hyp12-deform.json", {("labels", 2): "alpha"}), "labels: must be distinct"),
    (edited("hyp12-deform.json", {("weights",): [1, 2, 3]}), "weights: must be a nonempty array of rows"),
    (edited("hyp12-deform.json", {("weights", 1, 2): True}), "weights[1][2]: must be an integer"),
    (edited("hyp12-deform.json", {("weights",): [[1, 2], [3, 4]]}), "weights: one column per label"),
    (
        edited("hyp12-deform.json", {("claimed_polystable_supports_any_of",): ["alpha"]}),
        "claimed_polystable_supports_any_of: must be an array of label arrays",
    ),
    (
        edited("hyp12-deform.json", {("claimed_polystable_supports_any_of", 0, 1): "delta"}),
        "claimed_polystable_supports_any_of[0]: unknown label 'delta'",
    ),
    (edited("p2-chow.json", {("fan",): [1]}), "fan: missing or not an object"),
    (edited("p2-chow.json", {("fan", "rank"): 0}), "fan.rank: must be a positive integer"),
    (edited("p2-chow.json", {("fan", "cones"): []}), "fan.cones: must be a nonempty array"),
    (
        edited("p2-chow.json", {("fan", "cones", 1): {"rays": [[0, 1]]}}),
        "fan.cones[1]: must be an object with generators",
    ),
    (
        edited("p2-chow.json", {("fan", "cones", 1, "generators"): {}}),
        "fan.cones[1].generators: must be an array",
    ),
    (
        edited("p2-chow.json", {("fan", "cones", 2, "generators", 1): [-1, -1, 0]}),
        "fan.cones[2].generators[1]: must be an integer vector of length rank",
    ),
    (edited("p2-chow.json", {("projection",): DROP}), "projection: must be a nonempty array of rows"),
    (edited("p2-chow.json", {("projection",): [[1, -1, 0]]}), "projection: columns must match fan.rank"),
    (edited("lattice-rotation.json", {("rank",): "2"}), "rank: must be a positive integer"),
    (edited("lattice-rotation.json", {("generators",): {}}), "generators: must be a nonempty array"),
    (edited("lattice-rotation.json", {("rank",): 3}), "generators[0]: must be 3x3"),
    (
        {"name": "nothing to detect", "rank": 2},
        "unrecognized file format (no fibers/points/weights/fan/generators key)",
    ),
    (["fibers"], "top level must be an object"),
]


@pytest.mark.parametrize("document, problem", MALFORMED, ids=[problem for _, problem in MALFORMED])
def test_validate_reports_each_problem_by_path(tmp_path, capsys, document, problem):
    target = tmp_path / "malformed.json"
    target.write_text(json.dumps(document))
    assert run(["validate", str(target)]) == 1
    out, err = capsys.readouterr()
    if isinstance(document, dict):
        assert f"  problem: {problem}\n" in out
    else:
        assert err == f"input error: {target}: {problem}\n"


@pytest.mark.parametrize("dim, problem", [(True, "dim: must be int"), (1, "dim: must be >= 2")])
def test_validate_reports_a_bad_dim_once(tmp_path, capsys, dim, problem):
    # no lattice rank is derived from an invalid dim, so no "must be 0x0" follows
    target = tmp_path / "dim.json"
    target.write_text(json.dumps(edited("quadric.json", {("dim",): dim})))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if "problem:" in line] == [f"  problem: {problem}"]


@pytest.mark.parametrize(
    "document, problem, commands",
    [
        (
            edited("quadric.json", {("fibers", 1, "point"): ["0", "2"]}),
            "fibers[1].point: the same point as fibers[0].point",
            ("tvar check",),
        ),
        (
            edited("pair-involution.json", {("points", 0, "pt"): ["1", "1"], ("points", 1, "pt"): ["2", "2"]}),
            "points[1].pt: the same point as points[0].pt",
            ("lct", "valuable"),
        ),
    ],
)
def test_repeated_point_is_a_schema_problem(tmp_path, capsys, document, problem, commands):
    # compared as rationals by cross-multiplication: [0, 1] ~ [0, 2], [1, 1] ~ [2, 2]
    target = tmp_path / "repeated.json"
    target.write_text(json.dumps(document))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1 and f"  problem: {problem}\n" in out
    for command in commands:
        assert run([*command.split(), str(target)]) == 1
        assert capsys.readouterr().err == f"input error: {problem}\n"


def test_exit_code_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run([ "validate", str(missing)]) == 1
    capsys.readouterr()
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run(["validate", str(garbage)]) == 1
    capsys.readouterr()


def test_exit_code_cap_error(tmp_path, capsys):
    data = read_json(fixture_path("pair-involution.json"))
    data["moebius_generators"] = [[["1", "1"], ["0", "1"]]]  # infinite translation group
    data["points"] = []
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(data))
    assert run(["lct", str(target)]) == 2
    capsys.readouterr()


def test_exit_code_precondition(capsys):
    assert run(["tvar", "check", fixture("p2-cstar.json")]) == 3
    capsys.readouterr()


def test_precondition_error_raised_by_a_computation_exits_3(tmp_path, capsys):
    data = read_json(fixture_path("pair-involution.json"))
    for entry in data["points"]:
        entry["coeff"] = "3/2"
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(data))
    assert run(["valuable", str(target)]) == 3
    assert capsys.readouterr().err.startswith("precondition violated: CoefficientOutOfRange: ")


def test_exit_code_internal_error(monkeypatch, capsys):
    # a simplex that always claims the all-ones balancing fails the integer check
    monkeypatch.setattr(exact, "_phase_one", lambda rows, rhs: (True, [0] * len(rows[0]), 1))
    assert run(["git", "locus", fixture("hyp12-deform.json")]) == 4
    assert "internal error: phase one returned" in capsys.readouterr().err


def test_chow_warns_about_lower_dimensional_images(tmp_path, capsys):
    data = {
        "name": "orthant and a ray",
        "fan": {"rank": 2, "cones": [{"generators": [[1, 0], [0, 1]]}, {"generators": [[-1, -1]]}]},
        "projection": [[1, 0], [0, 1]],
    }
    target = tmp_path / "chow.json"
    target.write_text(json.dumps(data))
    code, out = run_capture(capsys, "chow", str(target))
    assert code == 0 and "maximal_cell_count: 1" in out
    assert "warning: the images of these maximal cones are lower-dimensional and hold no cell: cone((-1, -1))" in out
    for name in ("p2-chow.json", "p1xp1-chow.json"):
        assert "warning" not in run_capture(capsys, "chow", fixture(name))[1]


def gap_variety_data(extra_fibers):
    return {
        "name": "gap",
        "dim": 3,
        "fano": True,
        "log_terminal": True,
        "fibers": [{"point": ["7", "1"], "divisors": []}] + extra_fibers,
        "horizontal": [],
        "symmetry": {
            "lattice_generators": [[[-1, 0], [0, -1]]],
            "moebius_generators": [[["1", "0"], ["0", "1"]]],
        },
    }


def test_declared_gap_certifies_via_counting_route(tmp_path, capsys):
    # three non-reduced fibers certify even though the threshold is unavailable
    fibers = [
        {"point": [t, 1], "divisors": [{"name": f"d{t}", "order": 2}]}
        for t in (0, 1, -1)
    ]
    target = tmp_path / "gap3.json"
    target.write_text(json.dumps(gap_variety_data(fibers)))
    code, out = run_capture(capsys, "tvar", "check", str(target))
    assert code == 0
    assert "ke_certified: true" in out
    assert "MorphismHypothesisViolated" in out  # the threshold line explains itself


def test_declared_gap_without_route_is_a_precondition_failure(tmp_path, capsys):
    fibers = [{"point": [0, 1], "divisors": [{"name": "d0", "order": 2}]}]
    target = tmp_path / "gap1.json"
    target.write_text(json.dumps(gap_variety_data(fibers)))
    code, out = run_capture(capsys, "tvar", "check", str(target))
    assert code == 3
    assert "ke_certified: null" in out
    assert "gap: no counting route applies to a boundary with -infinity entries" in out


def test_tvar_check_computes_each_quantity_once(monkeypatch, capsys):
    calls = {"boundary": 0, "lct_g": 0}
    originals = {"boundary": tvariety.boundary, "lct_g": curvepair.lct_g}
    for name, original in originals.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # patch every module namespace that holds the function
        for module in (cli, curvepair, tvariety):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, out = run_capture(capsys, "tvar", "check", fixture("bidegree12.json"))
    assert code == 0
    assert "lct_of_quotient_pair" in out
    assert calls == {"boundary": 1, "lct_g": 1}


def test_selftest_subcommand(capsys):
    code, out = run_capture(capsys, "selftest", "--seed", "7", "--cases", "25")
    assert code == 0
    assert out.count("pass") == 5
    _, again = run_capture(capsys, "selftest", "--seed", "7", "--cases", "25")
    assert again == out


@pytest.mark.parametrize(
    "argv",
    [
        ("tvar", "check", "bidegree12.json"),
        ("tvar", "check", "quadric.json"),
        ("lct", "pair-triangle.json"),
        ("valuable", "pair-involution.json"),
        ("git", "locus", "hyp12-deform.json"),
        ("chow", "p1xp1-chow.json"),
        ("lattice", "symmetric", "lattice-rotation.json"),
    ],
)
def test_json_reports_round_trip_everywhere(capsys, argv):
    argv = [a if not a.endswith(".json") else fixture(a) for a in argv]
    code, out = run_capture(capsys, *argv, "--json")
    assert code == 0
    report = Report.from_json(out)
    assert report.to_json() == out.rstrip("\n")
    assert report.report_version == 1
