"""Every fixture command and every generated case still prints its recorded
report byte for byte.

``tests/goldens/commands.txt`` lists each documented command line (run from
the repository root), one a line, as ``EXIT FILE COMMAND``: its exit code and
the file under ``tests/goldens/`` that holds its stdout.  A mismatch prints a
unified diff.  A ``--json`` report also reads back to a report that prints the
same text.  ``perfbench/goldens.json`` keeps the SHA-256 of each stdout for
the benchmark, and the two records must agree.

``tests/goldens/corpus/<command>.jsonl`` holds the generated cases that
``tests/goldens/make_corpus.py`` records: each runs in process on its
document, and a mismatch prints the case and a unified diff.  The corpus
must also be exactly what the script builds, so a generator edit that was
not re-recorded, or a corpus line edited by hand, fails.
"""

import difflib
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from symfano.cli import Report, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "goldens"


def _index() -> dict:
    goldens = {}
    for line in (GOLDEN_DIR / "commands.txt").read_text(encoding="utf-8").splitlines():
        code, name, command = line.split(" ", 2)
        goldens[command] = (int(code), GOLDEN_DIR / name)
    return goldens


GOLDENS = _index()


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_fixture_command_matches_golden(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run(command.split(" "))
    out = capsys.readouterr().out
    expected_code, path = GOLDENS[command]
    expected = path.read_bytes().decode("utf-8")
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True), out.splitlines(keepends=True),
            str(path.relative_to(ROOT)), "stdout",
        )
        pytest.fail("".join(diff), pytrace=False)
    assert code == expected_code
    if "--json" in command.split(" "):
        assert Report.from_json(out).to_json() == out.rstrip("\n")


def _corpus() -> list:
    cases = []
    for path in sorted((GOLDEN_DIR / "corpus").glob("*.jsonl")):
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            cases.append(pytest.param(json.loads(line), id=f"{path.stem}-{i}"))
    return cases


@pytest.mark.parametrize("case", _corpus())
def test_generated_case_matches_golden(case, tmp_path, capsys):
    path = tmp_path / "document.json"
    if case["document"] is not None:
        path.write_text(json.dumps(case["document"]), encoding="utf-8")
    code = run([str(path) if a == "{file}" else a for a in case["argv"]])
    out = capsys.readouterr().out
    if (out, code) != (case["stdout"], case["exit"]):
        diff = difflib.unified_diff(
            case["stdout"].splitlines(keepends=True), out.splitlines(keepends=True), "golden", "stdout"
        )
        shown = {k: case[k] for k in ("argv", "document", "exit")}
        pytest.fail(f"{json.dumps(shown)}\nexit {code}\n{''.join(diff)}", pytrace=False)
    if "--json" in case["argv"] and code == 0:
        assert Report.from_json(out).to_json() == out.rstrip("\n")


def test_corpus_is_what_the_generator_builds():
    spec = importlib.util.spec_from_file_location("make_corpus", GOLDEN_DIR / "make_corpus.py")
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    built = {
        command: [{"argv": argv, "document": json.loads(json.dumps(document))} for argv, document in cases]
        for command, cases in make_corpus.build().items()
    }
    recorded = {
        path.stem: [
            {k: json.loads(line)[k] for k in ("argv", "document")}
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        for path in (GOLDEN_DIR / "corpus").glob("*.jsonl")
    }
    assert recorded.keys() == built.keys()
    for command, cases in built.items():
        assert recorded[command] == cases, command


def test_goldens_agree_with_benchmark_digests():
    digests = json.loads((ROOT / "perfbench" / "goldens.json").read_text(encoding="utf-8"))
    recorded = {
        command: {"exit": code, "stdout_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for command, (code, path) in GOLDENS.items()
    }
    assert recorded == digests["commands"]
