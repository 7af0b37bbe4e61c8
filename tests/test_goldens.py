"""Every fixture command still prints its recorded report byte for byte.

``tests/goldens/commands.txt`` lists each documented command line (run from
the repository root), one a line, as ``EXIT FILE COMMAND``: its exit code and
the file under ``tests/goldens/`` that holds its stdout.  A mismatch prints a
unified diff.  A ``--json`` report also reads back to a report that prints the
same text.  ``perfbench/goldens.json`` keeps the SHA-256 of each stdout for
the benchmark, and the two records must agree.
"""

import difflib
import hashlib
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


def test_goldens_agree_with_benchmark_digests():
    digests = json.loads((ROOT / "perfbench" / "goldens.json").read_text(encoding="utf-8"))
    recorded = {
        command: {"exit": code, "stdout_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for command, (code, path) in GOLDENS.items()
    }
    assert recorded == digests["commands"]
