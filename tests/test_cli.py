import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import make_corpus
import pytest

from symfano import cli, curvepair, exact, rationals, schemas, selftest, tvariety
from symfano.cli import Report, run
from symfano.errors import InputError, SymfanoError
from symfano.quotients import polystable_locus
from symfano.schemas import (
    _check_document,
    fixture_path,
    load_chow,
    load_lattice,
    load_pair,
    load_variety,
    load_weights,
    read_json,
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


def test_validate_reports_paths(fixture_data):
    data = fixture_data("bidegree12.json")
    data["fibers"][0]["divisors"][1]["order"] = 0
    kind, problems = _check_document(data)[:2]
    assert kind == "variety"
    assert any("fibers[0].divisors[1].order" in p and ">= 1" in p for p in problems)

    data = fixture_data("bidegree12.json")
    data["fibers"][1]["divisors"][0]["name"] = "u0"
    problems = _check_document(data)[1]
    assert any("duplicate divisor name: u0" in p for p in problems)

    data = fixture_data("bidegree12.json")
    del data["symmetry"]["moebius_generators"]
    problems = _check_document(data)[1]
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
    assert again != Report("demo")
    assert list(vars(again.verdicts[0])) == ["claim", "value", "route", "certificate"]


def test_a_report_of_another_version_does_not_read():
    # the writer writes version 1 only, so it could not write such a report back
    for version in ("0", "2", '"1"', "null"):
        text = Report("demo").to_json().replace('"report_version": 1', f'"report_version": {version}')
        with pytest.raises(InputError, match="report version"):
            Report.from_json(text)


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


def dumps(report):
    """The byte contract of ``to_json``: ``json.dumps`` with indent 2, sorted
    keys and ``ensure_ascii`` off of the report's JSON value, built here from
    its ``Verdict``s."""
    value = {
        "report_version": 1,
        "subject": report.subject,
        "verdicts": [vars(verdict) for verdict in report.verdicts],
        "warnings": report.warnings,
    }
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)


def test_to_json_is_json_dumps_with_indent_2(rng):
    for _ in range(400):
        report = Report(rng.choice(TEXTS))
        for _ in range(rng.randint(0, 3)):
            report.add(rng.choice(TEXTS), random_tree(rng, 4), rng.choice((None, "route")), random_tree(rng, 4))
        for _ in range(rng.randint(0, 2)):
            report.warn(rng.choice(TEXTS))
        assert report.to_json() == dumps(report)
    for value in ({}, [], (), [True, 1], [1, True], ["a", 1], [None, 0], 0, -0.0, True):
        report = Report("edge")
        report.add("c", value)
        assert report.to_json() == dumps(report)


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------


def test_tvar_check_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, out = run_capture(capsys, "tvar", "check", fixture("bidegree12.json"), "--json")
        outputs.add(out)
    assert len(outputs) == 1


BIG_INVOLUTION_ORBITS = (
    "{1000000000007/1000000000061-2/1000000000061*sqrt(500000000028500000000607)}",
    "{10000000000000000051/10000000000000000061-6/10000000000000000061*sqrt(5555555555555555611666666666666666805)}",
)


@pytest.mark.parametrize(
    "matrix, orbit", zip(make_corpus.BIG_INVOLUTIONS, BIG_INVOLUTION_ORBITS), ids=("13-digit", "20-digit")
)
def test_lct_of_an_involution_with_big_entries(tmp_path, capsys, matrix, orbit):
    # the fixed points' discriminant is reduced without factoring it in full
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"name": "big", "points": [], "moebius_generators": [matrix]}))
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
        capsys, "git", "polystable", fixture("hyp12-deform.json"), "--support", ""
    )
    assert code == 0 and "polystable: true" in out


def reference_locus_report(document, rows):
    """The ``git locus`` report on the decided rows, built one ``Verdict`` per
    support with its certificate as a dict, the way the command built it
    before it wrote straight from the rows."""
    _, claimed = load_weights(document)
    report = Report(document["name"])
    mismatches = []
    polystable_supports = []
    for support, verdict, cert in rows:
        if verdict:
            polystable_supports.append(list(support))
        report.add(f"support {{{', '.join(support) or 'empty'}}}", verdict, certificate=certificate_dict(verdict, cert))
        if claimed is not None:
            said = not support or any(set(piece) <= set(support) for piece in claimed)
            if said != verdict:
                mismatches.append(support)
    report.add("polystable_supports", polystable_supports)
    if claimed is not None:
        if mismatches:
            report.warn(
                "computed verdicts disagree with the stated locus on: "
                + "; ".join("{" + ", ".join(s) + "}" for s in mismatches)
                + " (the computed limit certificates are authoritative)"
            )
        else:
            report.add("stated_locus_check", "agrees")
    return report


def random_weight_documents(rng):
    """Weight documents with n = 1 to 12 coordinates and torus rank 1 to 3,
    entries in [-2, 2] so that submatrices repeat, without a claimed locus,
    with a claim that agrees and with claims that mostly disagree."""
    for n in range(1, 13):
        labels = [f"x{i}" for i in range(n)]
        weights = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(1 + n % 3)]
        document = {"name": f"random-{n}x{len(weights)}", "labels": labels, "weights": weights}
        yield document
        claim = [rng.sample(labels, rng.randint(1, n)) for _ in range(rng.randint(1, 2))]
        yield {**document, "claimed_polystable_supports_any_of": claim}
        if n <= 7:
            # the minimal polystable supports: the claim agrees exactly when
            # every enlargement of a polystable support is polystable
            stable = [set(s) for s, verdict, _ in polystable_locus(load_weights(document)[0]) if s and verdict]
            minimal = [sorted(s, key=labels.index) for s in stable if not any(t < s for t in stable)]
            yield {**document, "claimed_polystable_supports_any_of": minimal}
        # one row without zeros: a support is polystable when it holds a
        # positive and a negative weight, and the pairs of those are the claim
        row = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        pairs = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n) if row[i] * row[j] < 0]
        yield {"name": f"signs-{n}", "labels": labels, "weights": [row], "claimed_polystable_supports_any_of": pairs}


def git_locus_documents():
    yield from (read_json(fixture_path(name)) for name in ("hyp12-deform.json", "blowup-deform.json"))
    yield from (case["document"] for case in make_corpus.corpus()["git-locus"] if case["exit"] == 0)


def test_streamed_locus_report_is_the_built_report(tmp_path, capsys):
    # the report written from the decided rows has the bytes of the report
    # built one Verdict per support, in JSON and in text
    outcomes = {"unclaimed": 0, "agrees": 0, "disagrees": 0}
    shared = 0
    documents = [*git_locus_documents(), *random_weight_documents(random.Random(20261019))]
    for document in documents:
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        rows = polystable_locus(load_weights(document)[0])
        reference = reference_locus_report(document, rows)
        code, out = run_capture(capsys, "git", "locus", str(path), "--json")
        assert code == 0
        assert out == reference.to_json() + "\n"
        if len(rows) <= 64:  # the standard library's pure-Python indenting encoder
            assert out == dumps(reference) + "\n"
        code, text = run_capture(capsys, "git", "locus", str(path))
        assert code == 0
        assert text == reference.render() + "\n"
        if len(rows) <= 256:
            # a report that holds the rows themselves compares and writes as the built one
            held = Report(reference.subject)
            held.verdicts = [cli.StabilityVerdicts(rows), *reference.verdicts[len(rows) + 1:]]
            held.warnings = reference.warnings
            assert held == reference == Report.from_json(out)
            assert (held.to_json(), held.render()) == (out[:-1], text[:-1])

        shared += len({cert for _, _, cert in rows}) < len(rows)
        if reference.warnings:
            outcomes["disagrees"] += 1
        else:
            outcomes["agrees" if "claimed_polystable_supports_any_of" in document else "unclaimed"] += 1
    assert min(outcomes.values()) >= 10, outcomes
    assert shared >= len(documents) // 2


def test_locus_rows_share_equal_certificates():
    # rows whose certificates are equal hold one object, so that a report
    # builds each certificate's text once, keyed by the object
    for document in git_locus_documents():
        certificates = [cert for _, _, cert in polystable_locus(load_weights(document)[0])]
        assert len(set(map(id, certificates))) == len(set(certificates))


def certificate_dict(polystable, cert):
    """A stability certificate as a report holds it, built without ``cli``."""
    if polystable:
        return {
            "type": "positive-combination",
            "coefficients": [rationals.ratio_str(n, cert.denominator) for n in cert.numerators],
        }
    return {"type": "destabilizer", "one_parameter_subgroup": list(cert.vector)}


def test_reports_write_labels_that_need_escaping(tmp_path, capsys):
    # labels with a quote, a backslash, a non-ASCII letter and a tab, in every
    # claim, support list, polystable_supports item and warning
    labels = ['a"b', "c\\d", "\u03b1", "e\tf"]
    document = {
        "name": "escapes \u03b1",
        "labels": labels,
        "weights": [[1, -1, 2, -2], [0, 1, -1, 1]],
        "claimed_polystable_supports_any_of": [['a"b', "c\\d"]],
    }
    path = tmp_path / "escapes.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    rows = polystable_locus(load_weights(document)[0])
    assert {verdict for support, verdict, _ in rows if support} == {True, False}

    def check(argv, reference):
        code, out = run_capture(capsys, *argv, "--json")
        assert code == 0
        assert out == dumps(reference) + "\n"
        code, text = run_capture(capsys, *argv)
        assert code == 0
        assert text == reference.render() + "\n"

    locus = reference_locus_report(document, rows)
    assert locus.warnings
    check(("git", "locus", str(path)), locus)
    for support, verdict, cert in rows:
        reference = Report(document["name"])
        reference.add("support", list(support))
        reference.add("polystable", verdict, certificate=certificate_dict(verdict, cert))
        check(("git", "polystable", str(path), "--support", ",".join(support)), reference)


def test_certificate_templates_write_the_certificate_dicts(rng):
    combinations = [exact.PositiveCombination(())]
    for _ in range(300):
        size = rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:  # integers
            coefficients = [rng.randint(1, 9) for _ in range(size)]
        elif kind == 1:  # fractions
            coefficients = [Fraction(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(size)]
        else:  # large numerators, large or unit denominators
            den = rng.choice((1, rng.randrange(2, 10**25)))
            coefficients = [Fraction(rng.randrange(1, 10**40), den) for _ in range(size)]
        combinations.append(exact.PositiveCombination(coefficients))
    assert {c.denominator == 1 for c in combinations} == {True, False}
    witnesses = [exact.SemipositiveWitness((0,)), exact.SemipositiveWitness((-(10**30), 0, 7))]
    for _ in range(300):
        entries = rng.choice(((-3, 3), (-(10**20), 10**20)))
        witnesses.append(exact.SemipositiveWitness(tuple(rng.randint(*entries) for _ in range(rng.randint(1, 3)))))
    assert any(0 in w.vector for w in witnesses) and any(min(w.vector) < 0 for w in witnesses)
    for polystable, certificates in ((True, combinations), (False, witnesses)):
        for cert in certificates:
            expected = cli._cert_dict(polystable, cert)
            assert expected == certificate_dict(polystable, cert)
            assert cli._cert_json(polystable, cert) == cli._json_text(expected)


def test_polystable_supports_are_written_in_pieces(tmp_path, monkeypatch):
    # 14 coordinates, 7 of weight 1 and 7 of weight -1: 1 + 127^2 polystable supports
    labels = [f"x{i}" for i in range(14)]
    document = {"name": "signs-14", "labels": labels, "weights": [[1] * 7 + [-1] * 7]}
    path = tmp_path / "signs.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    pieces = []
    sink = SimpleNamespace(writelines=pieces.extend, write=pieces.append)
    monkeypatch.setattr(sys, "stdout", sink)
    assert run(["git", "locus", str(path), "--json"]) == 0
    verdict = json.loads("".join(pieces))["verdicts"][-1]
    rows = polystable_locus(load_weights(document)[0])
    assert verdict["claim"] == "polystable_supports"
    assert verdict["value"] == [list(support) for support, polystable, _ in rows if polystable]
    assert len(verdict["value"]) == 1 + 127**2
    # each support of the value starts a line at its items' indentation
    assert sum(piece.count("\n        [") for piece in pieces) == len(verdict["value"])
    assert max(piece.count("\n        [") for piece in pieces) <= cli._PIECE_VERDICTS


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


def cyclic_on_five_fibers(name, orders, permutation):
    """A variety on fibers over 0..4 of the given orders, with one declared cyclic generator."""
    data = declared(marked_permutations=[permutation], induced_cyclic=True)
    data["name"] = name
    data["fibers"] = [
        {"point": [str(i), "1"], "divisors": [{"name": f"d{i}", "order": order}]} for i, order in enumerate(orders)
    ]
    return data


def declared_on_points(name, points, lattice_generators, permutations, induced_cyclic):
    """A threefold with one reduced fiber over each point and a declared action."""
    return {
        "name": name, "dim": 3, "fano": True, "log_terminal": True,
        "fibers": [{"point": p, "divisors": [{"name": f"d{i}", "order": 1}]} for i, p in enumerate(points)],
        "horizontal": [],
        "symmetry": {
            "lattice_generators": lattice_generators,
            "marked_permutations": permutations,
            "induced_cyclic": induced_cyclic,
        },
    }


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


def label_problem(i, label):
    return f"labels[{i}]: {label!r} must be nonempty, without a comma or surrounding whitespace"


@pytest.mark.parametrize("label", ["", "a, b", "a,b", ",", " a", "a ", "\ta", "a\n"])
def test_a_label_that_cannot_name_a_support_is_an_input_error(tmp_path, capsys, label):
    # a support is printed and read by --support as labels joined by commas
    target = tmp_path / "labels.json"
    target.write_text(json.dumps({"name": "labels", "labels": ["c", label, "d"], "weights": [[1, -1, 1]]}))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if "problem:" in line] == [f"  problem: {label_problem(1, label)}"]
    for argv in (["git", "locus", str(target)], ["git", "polystable", str(target), "--support", "c"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {label_problem(1, label)}\n"


@pytest.mark.parametrize(
    "text",
    [" 3 ", "\t-1/2\n", "3/ 4", "1_0", "٣", "１/２"],
    ids=["spaces", "tab-newline", "inner-space", "underscore", "arabic-indic", "fullwidth"],
)
def test_a_rational_off_its_text_form_is_an_input_error(tmp_path, capsys, text):
    # ``int`` reads each part of these, but a rational is "p/q" in ASCII digits
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(edited("pair-triangle.json", {("points", 0, "coeff"): text})))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if "problem:" in line] == [
        '  problem: points[0].coeff: must be a rational or "-inf"'
    ]
    assert run(["lct", str(target)]) == 1
    assert capsys.readouterr().out == ""
    with pytest.raises(InputError, match="^not a rational: "):
        rationals.rat(text)


def test_labels_that_would_give_two_verdicts_one_claim_are_rejected(tmp_path, capsys):
    # "support {empty}" and "support {a, b}" would each name two supports
    target = tmp_path / "labels.json"
    target.write_text(json.dumps({"name": "labels", "labels": ["", "a, b", "a", "b"], "weights": [[1, -1, 1, -1]]}))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if "problem:" in line] == [
        f"  problem: {label_problem(0, '')}",
        f"  problem: {label_problem(1, 'a, b')}",
    ]
    for argv in (["git", "locus", str(target)], ["git", "polystable", str(target), "--support", "a, b"]):
        assert run(argv) == 1
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("dim, problem", [(True, "dim: must be int"), (1, "dim: must be >= 2")])
def test_validate_reports_a_bad_dim_once(tmp_path, capsys, dim, problem):
    # no lattice rank is derived from an invalid dim, so no "must be 0x0" follows
    target = tmp_path / "dim.json"
    target.write_text(json.dumps(edited("quadric.json", {("dim",): dim})))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if "problem:" in line] == [f"  problem: {problem}"]


@pytest.mark.parametrize(
    "name, fixture_name, command",
    [
        ({"a": 1}, "lattice-rotation.json", ["lattice", "symmetric"]),
        (None, "pair-involution.json", ["lct"]),
        (True, "hyp12-deform.json", ["git", "locus"]),
        (["x"], "p2-chow.json", ["chow"]),
        (5, "pair-triangle.json", ["valuable"]),
    ],
    ids=["object", "null", "bool", "array", "int"],
)
def test_a_name_that_is_no_string_is_an_input_error(tmp_path, capsys, name, fixture_name, command):
    # the name is the report's subject, so it must be a string in every kind
    target = tmp_path / "named.json"
    target.write_text(json.dumps(edited(fixture_name, {("name",): name})))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1 and out.startswith(f"subject: {target}\n")
    assert [line for line in out.splitlines() if "problem:" in line] == ["  problem: name: must be str"]
    assert run([*command, str(target)]) == 1
    assert capsys.readouterr() == ("", "input error: name: must be str\n")


NOT_TEXT = "must be Unicode text, without a lone surrogate"
NOT_LINE = "must be one line, without a line break"


@pytest.mark.parametrize(
    "fixture_name, edits, command, problems, message",
    [
        ("lattice-rotation.json", {("name",): "\ud800"}, ["lattice", "symmetric"], ["name"], NOT_TEXT),
        ("pair-involution.json", {("name",): "x\udfff"}, ["lct", "--json"], ["name"], NOT_TEXT),
        (
            "hyp12-deform.json",
            {("labels", 1): "a\ud800", ("claimed_polystable_supports_any_of", 0, 1): "a\ud800"},
            ["git", "locus"],
            ["labels[1]"],
            NOT_TEXT,
        ),
        (
            "bidegree12.json",
            {("fibers", 0, "divisors", 1, "name"): "\ud800", ("fibers", 2, "divisors", 0, "name"): "\ud800"},
            ["tvar", "check"],
            ["fibers[0].divisors[1].name", "fibers[2].divisors[0].name"],
            NOT_TEXT,
        ),
        ("p2-cstar.json", {("horizontal", 0): "\udfff"}, ["tvar", "check", "--json"], ["horizontal[0]"], NOT_TEXT),
        # each would print a line of its own in a text report
        (
            "lattice-rotation.json",
            {("name",): "x\n  symmetric: false"},
            ["lattice", "symmetric"],
            ["name"],
            NOT_LINE,
        ),
        (
            "hyp12-deform.json",
            {("labels", 1): "a\nb", ("claimed_polystable_supports_any_of", 0, 1): "a\nb"},
            ["git", "locus"],
            ["labels[1]"],
            NOT_LINE,
        ),
        (
            "bidegree12.json",
            {("fibers", 0, "divisors", 1, "name"): "d\r1", ("fibers", 2, "divisors", 0, "name"): "d\u20281"},
            ["tvar", "check"],
            ["fibers[0].divisors[1].name", "fibers[2].divisors[0].name"],
            NOT_LINE,
        ),
        ("p2-cstar.json", {("horizontal", 0): "h\x85"}, ["tvar", "check", "--json"], ["horizontal[0]"], NOT_LINE),
    ],
    ids=[
        "name", "name-json", "label", "divisor-names", "horizontal",
        "name-line-break", "label-line-break", "divisor-names-line-break", "horizontal-line-break",
    ],
)
def test_a_string_that_is_no_unicode_text_is_an_input_error(
    tmp_path, capsys, fixture_name, edits, command, problems, message
):
    # JSON's \ud800 escape reads as a lone surrogate, which no report can write
    # as UTF-8, and a line break would forge a line of a text report
    target = tmp_path / "strings.json"
    target.write_text(json.dumps(edited(fixture_name, edits)))
    subject = target if ("name",) in edits else read_json(target)["name"]
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1 and out.startswith(f"subject: {subject}\n")
    assert [line for line in out.splitlines() if "problem:" in line] == [
        f"  problem: {path}: {message}" for path in problems
    ]
    assert run([*command, str(target)]) == 1
    assert capsys.readouterr() == ("", f"input error: {'; '.join(f'{path}: {message}' for path in problems)}\n")


@pytest.mark.parametrize("encoding", [None, "utf-8"], ids=["default", "utf-8"])
def test_a_path_subject_that_is_no_unicode_text_is_written_as_its_ascii(tmp_path, fresh_env, encoding):
    # a path byte that is not UTF-8 reaches ``run`` as a lone surrogate, which
    # stdout either writes back raw or cannot write at all
    target = os.path.join(os.fsencode(tmp_path), b"nameless\xff.json")
    with open(target, "wb") as handle:
        handle.write(json.dumps(edited("lattice-rotation.json", {("name",): DROP})).encode())
    env = {key: value for key, value in fresh_env.items() if key != "PYTHONIOENCODING"}
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    subject = ascii(os.fsdecode(target))
    for as_json in (False, True):
        argv = [sys.executable, "-m", "symfano.cli", "lattice", "symmetric", target] + ["--json"] * as_json
        proc = subprocess.run(argv, env=env, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        out = proc.stdout.decode("utf-8")
        if as_json:
            assert Report.from_json(out).subject == subject
        else:
            assert out.startswith(f"subject: {subject}\n  fixed_sublattice_rank: ")


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
        (
            edited("pair-involution.json", {("points", 0, "pt"): ["1", "0"], ("points", 1, "pt"): ["-3", "0"]}),
            "points[1].pt: the same point as points[0].pt",
            ("lct", "valuable"),
        ),
        (
            edited("pair-involution.json", {("points",): [
                {"pt": ["1", "2"], "coeff": "1/2"},
                {"pt": ["-2", "-4"], "coeff": "1/2"},
                {"pt": ["1/3", "2/3"], "coeff": "1/2"},
            ]}),
            "points[1].pt: the same point as points[0].pt; points[2].pt: the same point as points[0].pt",
            ("lct", "valuable"),
        ),
        (
            edited("pair-involution.json", {("points",): [
                {"pt": ["2/4", 1], "coeff": "1/2"},
                {"pt": [1, "2"], "coeff": "1/2"},
                {"pt": ["1/-2", "-1"], "coeff": "1/2"},
            ]}),
            "points[1].pt: the same point as points[0].pt; points[2].pt: the same point as points[0].pt",
            ("lct", "valuable"),
        ),
    ],
)
def test_repeated_point_is_a_schema_problem(tmp_path, capsys, document, problem, commands):
    # compared as ProjPoint.coords: [0, 1] ~ [0, 2], [1, 1] ~ [2, 2], [1, 0] ~ [-3, 0],
    # ["2/4", 1] ~ [1, "2"] ~ ["1/-2", "-1"]; each later copy names the first
    target = tmp_path / "repeated.json"
    target.write_text(json.dumps(document))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 1
    for line in problem.split("; "):
        assert f"  problem: {line}\n" in out
    for command in commands:
        assert run([*command.split(), str(target)]) == 1
        assert capsys.readouterr().err == f"input error: {problem}\n"


SPELLINGS = [
    (["1", "2"], ["2", "4"]),
    (["2/4", "1"], ["1/2", "1"]),
    (["1/-2", "1"], ["-1/2", "1"]),
    (["1/-2", "1"], ["1/2", "1"]),
    ([3, 1], ["3", "1"]),
    ([3, 1], ["6/2", 1]),
    ([3, 1], ["1", "3"]),
    (["1", "0"], ["-3", "0"]),
    (["1", "0"], ["0", "1"]),
    (["0", "-5"], [0, "1/7"]),
    (["-1", "2"], ["1", "-2"]),
    (["-1", "2"], ["1", "2"]),
]


@pytest.mark.parametrize("first, second", SPELLINGS)
def test_a_repeat_is_reported_exactly_for_equal_points(tmp_path, capsys, first, second):
    document = edited("pair-involution.json", {("points", 0, "pt"): first, ("points", 1, "pt"): second})
    target = tmp_path / "spellings.json"
    target.write_text(json.dumps(document))
    code, out = run_capture(capsys, "validate", str(target))
    repeated = "  problem: points[1].pt: the same point as points[0].pt\n" in out
    assert repeated == (exact.ProjPoint(*first) == exact.ProjPoint(*second))
    assert code == (1 if repeated else 0)


@pytest.mark.parametrize(
    "document, message, commands",
    [
        (
            edited("pair-involution.json", {("moebius_generators", 0): [["1", "2"], ["1/2", "1"]]}),
            "Moebius matrix must have nonzero determinant",
            ("lct", "valuable"),
        ),
        (
            edited("quadric.json", {("symmetry", "lattice_generators", 0): [[2, 0], [0, 1]]}),
            "lattice generators must be unimodular",
            ("tvar check",),
        ),
        (
            declared(marked_permutations=[[1, 0, 2]], induced_cyclic=False),
            "quadric: induced_cyclic is false, but the maps through the marked fibers generate a cyclic"
            " group",
            ("tvar check", "tvar check --json"),
        ),
        (
            cyclic_on_five_fibers("pair-and-triple", (2, 2, 1, 1, 1), [1, 0, 3, 4, 2]),
            "pair-and-triple: the map [[3, -3], [2, -3]] through the first three marked fibers sends 3 to 2,"
            " not to 4",
            ("tvar check",),
        ),
        (
            cyclic_on_five_fibers("three-fixed", (2, 2, 2, 1, 1), [0, 1, 2, 4, 3]),
            "three-fixed: the map [[1, 0], [0, 1]] through the first three marked fibers sends 3 to 3, not"
            " to 4",
            ("tvar check",),
        ),
        (
            declared_on_points("one-generator", [], [[[-1, 0], [0, -1]]], [[]], False),
            "one-generator: induced_cyclic is false, but the declared action has one generator (a group"
            " with one generator is cyclic)",
            ("tvar check", "tvar check --json"),
        ),
        (
            declared_on_points(
                "five-cycle", [[str(i), "1"] for i in range(5)], [[[-1, 0], [0, -1]]], [[1, 2, 3, 4, 0]], False
            ),
            "five-cycle: the map [[1, 1], [0, 1]] through the first three marked fibers sends 4 to 5, not"
            " to 0",
            ("tvar check", "tvar check --json"),
        ),
        (
            declared_on_points(
                "order-three", [["0", "1"], ["1", "1"], ["1", "0"]], [[[-1, 0], [0, -1]], [[0, -1], [1, -1]]],
                [[1, 2, 0], [1, 2, 0]], False,
            ),
            "order-three: induced_cyclic is false, but the maps through the marked fibers generate a cyclic"
            " group",
            ("tvar check", "tvar check --json"),
        ),
    ],
)
def test_constructor_checks_reject_a_well_formed_document(tmp_path, capsys, document, message, commands):
    # the schema checks shape only; the public constructors the loaders build
    # through reject a singular Moebius matrix, a non-unimodular generator,
    # a declared action on three or more fibers that the maps through its
    # first three fibers do not realise or whose flag misreads their group,
    # and a non-cyclic declaration with one generator, which the counting
    # routes would otherwise certify
    target = tmp_path / "document.json"
    target.write_text(json.dumps(document))
    code, out = run_capture(capsys, "validate", str(target))
    assert code == 0
    assert "  schema: OK\n" in out
    for command in commands:
        assert run([*command.split(), str(target)]) == 1
        assert capsys.readouterr() == ("", f"input error: {message}\n")


def _rational_entries(data: dict) -> int:
    """Point coordinates, finite coefficients and Moebius matrix entries."""
    if "points" in data:
        coeffs = sum(entry["coeff"] != "-inf" for entry in data["points"])
        return 2 * len(data["points"]) + coeffs + 4 * len(data["moebius_generators"])
    return 2 * len(data["fibers"]) + 4 * len(data["symmetry"].get("moebius_generators", []))


def test_each_rational_is_parsed_once(monkeypatch):
    calls = []
    original = rationals.parse_ratio

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(rationals, "parse_ratio", counted)
    monkeypatch.setattr(schemas, "parse_ratio", counted)
    # every well-formed pair and variety document of the fixtures and the corpus
    documents = [read_json(path) for path in sorted(fixture_path("").glob("*.json"))]
    documents += [case["document"] for cases in make_corpus.corpus().values() for case in cases]
    documents = [d for d in documents if d and _check_document(d)[:2] in (("pair", []), ("variety", []))]
    assert len(documents) > 100
    for data in documents:
        calls.clear()
        try:
            (load_pair if "points" in data else load_variety)(data)
        except SymfanoError:
            pass  # a constructor check after the parse, e.g. invariance
        assert len(calls) == _rational_entries(data), data["name"]


def test_exit_code_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run([ "validate", str(missing)]) == 1
    capsys.readouterr()
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run(["validate", str(garbage)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "document",
    [b'{"name": "\xff"}', b"[" * 100000, b'{"name": ' + b"1" * 5000 + b"}"],
    ids=["not-utf-8", "nested-too-deep", "int-over-digit-limit"],
)
def test_an_unreadable_document_is_an_input_error(tmp_path, capsys, document):
    target = tmp_path / "document.json"
    target.write_bytes(document)
    assert run(["validate", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {target} is not valid JSON: ") and err.count("\n") == 1


def test_exit_code_cap_error(tmp_path, capsys):
    translation = read_json(fixture_path("pair-involution.json"))
    translation.update(moebius_generators=[[["1", "1"], ["0", "1"]]], points=[])  # an infinite group
    # [[2, 1], [1, 1]] has infinite order and fixes no vector: before the
    # lattice group was closed, the swapped-pair route certified this variety KE
    hyperbolic = {
        "name": "hyperbolic", "dim": 3, "fano": True, "log_terminal": True,
        "fibers": [{"point": ["0", "1"], "divisors": [{"name": "a", "order": 2}]},
                   {"point": ["1", "0"], "divisors": [{"name": "b", "order": 2}]}],
        "horizontal": [],
        "symmetry": {"lattice_generators": [[[2, 1], [1, 1]]], "moebius_generators": [[["0", "1"], ["1", "0"]]]},
    }
    rank_6 = {"name": "rank-6", "rank": 6, "generators": [[[-int(i == j) for j in range(6)] for i in range(6)]]}
    for argv, document, message in (
        (["lct"], translation, "NotFiniteWithinCap: group closure reached 13 elements, so the group is infinite: "
         "finite subgroups of PGL2(Q) have at most 12"),
        (["tvar", "check"], hyperbolic, "NotFiniteWithinCap: group closure reached 13 elements, so the group is "
         "infinite: finite subgroups of GL2(Z) have at most 12"),
        (["lattice", "symmetric"], rank_6, "ComputationCapError: cannot tell whether a lattice group of rank 6 is "
         "finite: lattice ranks above 5 are not supported"),
    ):
        target = tmp_path / "document.json"
        target.write_text(json.dumps(document))
        assert run([*argv, str(target)]) == 2
        assert capsys.readouterr() == ("", f"computation error: {message}\n")


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
    for json_flag in ([], ["--json"]):
        # the whole locus is decided before a byte of the report is written
        assert run(["git", "locus", fixture("hyp12-deform.json"), *json_flag]) == 4
        captured = capsys.readouterr()
        assert "internal error: phase one returned" in captured.err
        assert captured.out == ""


def test_route_that_disagrees_with_the_exact_threshold_exits_4(monkeypatch, tmp_path, capsys):
    # z -> -z fixes both fibers of multiplicity 2, over 0 and infinity, so
    # no route applies and the exact glct is 1/2; a swapped-pair condition
    # that says otherwise claims a route that needs glct 1
    data = {
        "name": "z to -z",
        "dim": 3,
        "fano": True,
        "log_terminal": True,
        "fibers": [
            {"point": ["0", "1"], "divisors": [{"name": "a", "order": 2}]},
            {"point": ["1", "0"], "divisors": [{"name": "b", "order": 2}]},
        ],
        "horizontal": [],
        "symmetry": {"lattice_generators": [[[-1, 0], [0, -1]]], "moebius_generators": [[["-1", "0"], ["0", "1"]]]},
    }
    target = tmp_path / "variety.json"
    target.write_text(json.dumps(data))
    code, out = run_capture(capsys, "tvar", "check", str(target))
    assert code == 0 and "ke_certified: false  [inconclusive]" in out and "glct: 1/2  [exact]" in out
    monkeypatch.setattr(tvariety, "_swapped_pair", lambda variety, p, q: True)
    for json_flag in ([], ["--json"]):
        assert run(["tvar", "check", str(target), *json_flag]) == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: z to -z: route swapped-pair with exact glct 1/2\n"
        assert captured.out == ""


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


@pytest.mark.parametrize("argv", [["validate"], ["tvar", "check"]], ids=" ".join)
@pytest.mark.parametrize("permutation", [[1, "x", 2, 3], [1, 0.0, 2, 3], [True, 0, 2, 3]], ids=str)
def test_marked_permutation_holds_only_ints(tmp_path, capsys, argv, permutation):
    # four fibers, a declared action
    data = next(c["document"] for c in make_corpus.corpus()["tvar-check"] if c["document"]["name"] == "tvar-g3-2")
    data["symmetry"]["marked_permutations"] = [permutation]
    target = tmp_path / "variety.json"
    target.write_text(json.dumps(data))
    code = run([*argv, str(target)])
    captured = capsys.readouterr()
    problem = "symmetry.marked_permutations[0]: must be a permutation of 0..3"
    if argv == ["validate"]:
        assert code == 1 and f"  problem: {problem}" in captured.out.splitlines()
    else:
        assert (code, captured.out, captured.err) == (1, "", f"input error: {problem}\n")


def test_chow_maps_each_maximal_cone_once(tmp_path, monkeypatch, capsys):
    from symfano import polyhedral

    calls = []
    image_cone = polyhedral.image_cone
    monkeypatch.setattr(polyhedral, "image_cone", lambda cone, p: calls.append(cone) or image_cone(cone, p))
    flat = tmp_path / "chow.json"
    flat.write_text(json.dumps(make_corpus.THREE_CONES_ONE_FLAT))
    for path in (fixture("p2-chow.json"), fixture("p1xp1-chow.json"), str(flat)):
        calls.clear()
        assert run(["chow", path]) == 0
        assert calls == list(load_chow(read_json(path))[0].maximal_cones)
    assert "warning: the images of these maximal cones" in capsys.readouterr().out


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


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_selftest_without_cases_is_an_input_error(capsys, cases):
    # a suite of no cases would report pass without checking anything
    assert run(["selftest", "--cases", cases]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: selftest needs at least 1 case per suite, not {cases}\n"


def test_a_failing_selftest_suite_is_an_internal_error(capsys, monkeypatch):
    # a failed property is a bug in the package, not bad input
    def suite_fails(rng, cases):
        return [f"case {i} failed" for i in range(cases)]

    monkeypatch.setattr(selftest, "SUITES", (*selftest.SUITES[:1], ("always_fails", suite_fails)))
    code, out = run_capture(capsys, "selftest", "--cases", "5")
    assert code == 4
    assert "snf_identity: pass" in out and "always_fails: FAIL" in out


def test_json_report_that_no_golden_records_round_trips(capsys):
    # make_corpus.replay reads every recorded --json report back through
    # Report.from_json; no golden records this support
    argv = ("git", "polystable", fixture("hyp12-deform.json"), "--support", "alpha,beta,gamma", "--json")
    code, out = run_capture(capsys, *argv)
    assert code == 0
    report = Report.from_json(out)
    assert report.to_json() == out.rstrip("\n")
    assert report.report_version == 1
