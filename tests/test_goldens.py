"""Every fixture command still prints its recorded report byte for byte.

``perfbench/goldens.json`` maps each documented command line (run from the
repository root) to its exit code and the SHA-256 of its stdout.  A ``--json``
report also reads back to a report that prints the same text.
"""

import hashlib
import json
from pathlib import Path

import pytest

from symfano.cli import Report, run

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text(encoding="utf-8"))["commands"]


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_fixture_command_matches_golden(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run(command.split(" "))
    out = capsys.readouterr().out
    assert code == GOLDENS[command]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDENS[command]["stdout_sha256"]
    if "--json" in command.split(" "):
        assert Report.from_json(out).to_json() == out.rstrip("\n")
