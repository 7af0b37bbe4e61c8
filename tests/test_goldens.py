"""Every fixture command and every generated case still prints its recorded
report byte for byte.

``tests/goldens/make_corpus.py`` is the one reader of the recorded cases:
the fixture goldens of ``tests/goldens/commands.txt``, named by their golden
file, and the corpus cases of ``tests/goldens/corpus/``, named
``<command>-<line>``.  Each case runs in process from the repository root
through ``make_corpus.replay``, which ``make_corpus.py --check`` runs too: a
mismatch prints a unified diff of the exit code, stdout and stderr, a
``--json`` report must read back to the same bytes, and a recorded stderr
must hold no traceback.  The corpus must also be exactly
what the script builds, so a generator edit that was not re-recorded, or a
corpus line edited by hand, fails.  ``perfbench/goldens.json`` keeps the
SHA-256 of each fixture golden's stdout for the benchmark, and the two
records must agree.
"""

import hashlib
import json
from pathlib import Path

import make_corpus
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("case", [pytest.param(case, id=case[0]) for case in make_corpus.recorded_cases()])
def test_recorded_case_matches(case, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    problem = make_corpus.replay(*case, tmp_path)
    if problem:
        pytest.fail(problem, pytrace=False)


def test_corpus_is_what_the_generator_builds():
    assert make_corpus.stale_commands() == []


def test_goldens_agree_with_benchmark_digests():
    digests = json.loads((ROOT / "perfbench" / "goldens.json").read_text(encoding="utf-8"))
    recorded = {
        " ".join(argv): {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
        for _, argv, _, code, stdout, _ in make_corpus.fixture_goldens()
    }
    assert recorded == digests["commands"]


def test_replay_diffs_the_recorded_stderr_and_fails_a_traceback(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    case = next(case for case in make_corpus.recorded_cases() if case[5])
    *recorded, stderr = case
    assert make_corpus.replay(*case, tmp_path) == ""
    assert make_corpus.replay(*recorded, stderr + "more\n", tmp_path).endswith(f"\n {stderr}-more\n")
    traceback = "Traceback (most recent call last):\n"
    monkeypatch.setattr(make_corpus, "run_case", lambda *args: (case[3], case[4], traceback))
    assert make_corpus.replay(*recorded, traceback, tmp_path) == f"{case[0]}: the recorded stderr holds a traceback\n"
