import json

import pytest

from symfano import cli, curvepair, exact, tvariety
from symfano.cli import Report, run
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


def test_validate_subcommand(tmp_path, capsys):
    code, out = run_capture(capsys, "validate", fixture("quadric.json"))
    assert code == 0 and "schema: OK" in out

    bad = tmp_path / "bad.json"
    data = read_json(fixture_path("quadric.json"))
    data["fibers"][2]["divisors"][0]["order"] = 0
    bad.write_text(json.dumps(data))
    code, out = run_capture(capsys, "validate", str(bad))
    assert code == 1 and "order must be >= 1" in out


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
