"""Apply each mutant of ``mutants.py`` to a scratch copy of the working tree
and print the survivors.

    python tests/run_mutants.py

The working tree is copied once to a temporary directory, without ``.git``
and caches.  The tests that the mutants list must first pass on the copy as
it is.  Then each mutant in turn replaces its ``old`` text by its ``new``
text, runs its tests in one pytest process, and is restored.  A mutant is
killed when every test it lists fails; otherwise it survives, and the runner
prints which of its tests passed.  A run that outlasts ``TIMEOUT_S`` is
stopped, and a mutant whose run is stopped counts as killed: its tests do
not pass.  The exit code is 0 when every mutant is killed, 1 when one
survives, and 2 when the copy cannot be set up: an ``old`` text that does
not occur exactly once, or a listed test that fails, times out or is
missing before any mutant is applied.  Runs one process at a time.  Tier-1
runs ``main`` too, in ``test_source.py``, and fails unless it returns 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "_run", "*.egg-info")
# A mutant can break a loop's termination, and its tests then never finish;
# no listed mutant does so, and the bound is kept for one that would.  Every
# run of listed tests, the unmutated one included, takes a few seconds on a
# 2-CPU machine; a minute leaves a slow or shared machine more than ten times
# that, and bounds what a hung mutant costs.
TIMEOUT_S = 60


def run_tests(copy: Path, tests) -> tuple[int | None, set[str], str]:
    """pytest on ``tests`` in ``copy``: its exit code, the ids that failed, and its
    output; the exit code is None, and no id failed, when the run timed out."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *tests]
    try:
        out = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, set(), f"timed out after {TIMEOUT_S} s"
    failed = {
        line.removeprefix("FAILED ").split(" - ", 1)[0]
        for line in out.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return out.returncode, failed, out.stdout + out.stderr


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="symfano-mutants-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for m in MUTANTS:
            count = (copy / m.file).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                print(f"{m.file}: old text occurs {count} times: {m.old!r}")
                return 2
        listed = sorted({test for m in MUTANTS for test in m.tests})
        code, _, output = run_tests(copy, listed)
        if code != 0:
            print(f"the listed tests do not pass on the unmutated copy (pytest exit {code}):\n{output}")
            return 2
        survivors = []
        for k, m in enumerate(MUTANTS, 1):
            path = copy / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code, failed, output = run_tests(copy, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            passed = [test for test in m.tests if test not in failed]
            killed = code is None or (code == 1 and not passed)
            verdict = f"killed (timed out after {TIMEOUT_S} s)" if code is None else "killed" if killed else "SURVIVED"
            print(f"{k:2d} {verdict}  {m.file}: {m.old.strip()!r} -> {m.new.strip()!r}")
            if not killed:
                survivors.append((k, m, passed, code))
        print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
        for k, m, passed, code in survivors:
            print(f"survivor {k}: {m.why}; pytest exit {code}, passed: {', '.join(passed)}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
