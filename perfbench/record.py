"""Record the reference data the benchmark compares against.

Usage, from the root of a checkout::

    python3 perfbench/record.py goldens   # cli-fixtures exit codes and stdout digests
    python3 perfbench/record.py counts    # layer counts of a traced run, per workload

Both files were recorded at the commit that introduced the benchmark.
Reports must stay byte-identical unless a change fixes a documented bug, so
re-record goldens only with such a fix and say so in CHANGES.md.  The counts
baseline is for comparison: a traced run prints how its counts differ from it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads


def write(name: str, doc: dict):
    doc = {"recorded_at": run.git_sha(), "src_digest": run.source_digest(), **doc}
    with open(os.path.join(run.HERE, name), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def goldens():
    commands = {}
    for argv in workloads.fixture_commands():
        proc = subprocess.run(
            [sys.executable, "-c", workloads.CLI_ENTRY, *argv],
            capture_output=True, text=True, cwd=run.ROOT, env=run.child_env(), timeout=120,
        )
        commands[workloads.command_key(argv)] = {"exit": proc.returncode, "stdout_sha256": workloads.digest(proc.stdout)}
    write("goldens.json", {"commands": commands})
    print(f"recorded {len(commands)} commands")


def counts():
    recorded = {}
    for workload in run.WORKLOADS:
        if run.main(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]) != 0:
            raise SystemExit(f"traced run of {workload} failed")
        path = os.path.join(run.RUN_DIR, "out", f"run-{workload}-seed0-trace1.json")
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not record["counts_repeat"]:
            raise SystemExit(f"counts of {workload} do not repeat")
        recorded[workload] = {"totals": record["counts"], "per_command": record["per_command_counts"]}
    write("baseline_counts.json", {"workloads": recorded})


def main() -> int:
    run.check_checkout()
    what = sys.argv[1:] or ["goldens"]
    {"goldens": goldens, "counts": counts}[what[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
