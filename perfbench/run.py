"""Benchmark of symfano: CLI latency and verdict throughput on four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen):

* ``cli-fixtures``  one ``symfano`` subprocess per documented command over the
  bundled fixtures, text and ``--json``;
* ``ke-batch``      in-process ``tvar check``, ``lct`` and ``valuable`` on
  generated varieties and pairs;
* ``git-locus``     in-process ``git locus --json`` on generated weight matrices;
* ``chow-refine``   in-process ``chow --json`` on generated fans.

Every workload is a closed loop with one client in one process, over a fixed
number of whole cycles.  Timings are reported at a reference speed: each is
scaled by how fast a fixed loop (reference.py) ran beside it, so a drift of
the machine's speed cancels.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run
(see BENCHMARK.json for both lists).  Earlier lines give the run's facts and a
readable summary; a full record goes to ``perfbench/_run/out/``.

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Children run with ``PYTHONHASHSEED=0`` and a bytecode cache
owned by the benchmark (``PYTHONPYCACHEPREFIX=perfbench/_run/pycache``), so
nothing is written into ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, "_run")
PYCACHE = os.path.join(RUN_DIR, "pycache")
WORKLOADS = ("cli-fixtures", "ke-batch", "git-locus", "chow-refine")

# set-up time is the median of this many set-ups in fresh processes
SETUP_SAMPLES = 5
# a worker that has not finished by then is killed (seconds of wall time)
SETUP_TIMEOUT_S = 30
MEASURE_LIMIT_S = 100
TRACED_LIMIT_S = 80

SYMFANO_MODULES = (
    "symfano", "symfano.errors", "symfano.rationals", "symfano.exact", "symfano.groups",
    "symfano.curvepair", "symfano.polyhedral", "symfano.quotients", "symfano.tvariety",
    "symfano.schemas", "symfano.selftest", "symfano.cli",
)


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["PYTHONHASHSEED"] = "0"
    return env


def check_checkout():
    for rel in ("src/symfano/__init__.py", "src/symfano/cli.py", "src/symfano/fixtures"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchmarkError(f"{rel} is missing: run from a checkout of the repository")


def spawn(workload: str, seed: int, seconds: float, mode: str, limit: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its result (None for ``setup``)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), str(seconds), mode, str(limit)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    deadline = threading.Timer(limit + SETUP_TIMEOUT_S + 30, proc.kill)
    deadline.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        deadline.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker for {workload} failed with exit code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def source_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "symfano")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def facts(args, worker: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": worker["python"],
        "backend": worker["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "bytecode": "PYTHONPYCACHEPREFIX=perfbench/_run/pycache, warmed in set-up",
        "hash_seed": 0,
        "loop": "closed, one client in one process",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def gauge() -> float:
    """Median wall seconds of three reference loops."""
    return statistics.median(reference.measure()[0] for _ in range(3))


def scaled(samples: dict, key: str, refs: str) -> list[float]:
    """Each operation's ``key`` at the reference speed of the loops around it."""
    return [v * reference.scale(samples[refs], pos) for v, pos in zip(samples[key], samples["ref_pos"])]


def end_to_end(samples: dict, setup_samples: list[float], peak_rss_kb: int, at_reference: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics; timings at the reference speed unless
    ``at_reference`` is false (then as measured, for the record)."""
    if at_reference:
        lat = scaled(samples, "latency_s", "ref_wall_s")
        cpu = scaled(samples, "cpu_s", "ref_cpu_s")
    else:
        lat, cpu = samples["latency_s"], samples["cpu_s"]
    p90, beyond = percentile(lat, 0.9)
    metrics = {
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "op_p90_ms": metric(p90 * 1000, "ms"),
        "cpu_ms_per_op": metric(sum(cpu) / len(lat) * 1000, "ms"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }
    extra = {
        "error_rate": metric(samples["failed"] / len(lat), "ratio"),
        "samples": len(lat),
        "samples_beyond_p90": beyond,
        "setup_samples_s": setup_samples,
    }
    return metrics, extra


def run_untraced(args) -> dict:
    """Set-ups in fresh processes, the last of which goes on to the timed loop.
    A set-up is scaled by the reference loops on either side of it; the
    timed worker's first loop follows its set-up."""
    raw_setups, refs = [], [gauge()]
    for _ in range(SETUP_SAMPLES - 1):
        raw_setups.append(spawn(args.workload, args.seed, args.seconds, "setup", 0)[0])
        refs.append(gauge())
    setup_s, worker = spawn(args.workload, args.seed, args.seconds, "measure", MEASURE_LIMIT_S)
    raw_setups.append(setup_s)
    samples = worker["samples"]
    refs.append(samples["ref_wall_s"][0])
    setups = [t * reference.NOMINAL_S / statistics.median(refs[k:k + 2]) for k, t in enumerate(raw_setups)]
    metrics, extra = end_to_end(samples, setups, worker["peak_rss_kb"])
    extra["as_measured"], _ = end_to_end(samples, raw_setups, worker["peak_rss_kb"], at_reference=False)
    extra["reference_ms"] = {"median": statistics.median(samples["ref_wall_s"]) * 1000,
                             "min": min(samples["ref_wall_s"]) * 1000, "max": max(samples["ref_wall_s"]) * 1000,
                             "count": len(samples["ref_wall_s"])}
    return {"worker": worker, "samples": samples, "metrics": metrics, "extra": extra}


def count_totals(per_command: dict) -> dict:
    totals: dict[str, int] = {}
    for counts in per_command.values():
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def run_traced(args) -> dict:
    """A traced worker (count pass, untraced and traced cycles in turn) and,
    in process, a second count pass in a fresh worker."""
    _, traced = spawn(args.workload, args.seed, args.seconds, "traced", TRACED_LIMIT_S)
    per_command = None
    if "cycle_counts" in traced:
        cycles = traced["cycle_counts"]
        per_command = cycles[0] if cycles else {}
        counts = count_totals(per_command)
        repeats = [count_totals(c) == counts for c in cycles[1:]]
    else:
        counts = traced["counts"]
        _, again = spawn(args.workload, args.seed, args.seconds, "count", TRACED_LIMIT_S)
        repeats = [again["counts"] == counts]
    samples = traced["samples"]
    ops = len(samples["latency_s"])
    plain_lat = scaled(traced["plain_samples"], "latency_s", "ref_wall_s")
    layers = per_layer(traced["self_s"], ops, counts, traced["cli"], traced["compute_s"])
    layers["error_rate"] = metric(samples["failed"] / ops, "ratio")
    traced_rate = ops / sum(scaled(samples, "latency_s", "ref_wall_s"))
    plain_rate = len(plain_lat) / sum(plain_lat)
    layers["trace.overhead"] = metric(plain_rate / traced_rate, "ratio")
    return {
        "worker": traced,
        "samples": samples,
        "metrics": layers,
        "counts": counts,
        "per_command_counts": per_command,
        "counts_repeat": bool(repeats) and all(repeats),
        "count_passes_compared": len(repeats) + 1,
    }


def per_layer(self_s: dict, ops: int, counts: dict, cli: dict, compute_s: float) -> dict:
    def per_op(name):
        return metric(self_s.get(name, 0.0) / ops, "s")

    def count(key):
        return metric(counts.get(key, 0), "count")

    def ratio(num, den):
        return metric(counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")

    out = {
        "cli.interp_ms": metric(cli["interp_s"] * 1000, "ms"),
        "cli.import_ms": metric(cli["import_s"] * 1000, "ms"),
        "cli.compute_ms": metric(compute_s * 1000, "ms"),
    }
    for module in SYMFANO_MODULES:
        out[f"import.{module}_ms"] = metric(cli["import_module_s"].get(module, 0.0) * 1000, "ms")
    out.update({
        "cli.render_s": per_op("cli.render"),
        "schemas.load_s": per_op("schemas.load"),
        "tvariety.ke_verdict_s": per_op("tvariety.ke_verdict"),
        "tvariety.glct_info_s": per_op("tvariety.glct_info"),
        "tvariety.glct_info_calls": count("calls:tvariety.glct_info"),
        "tvariety.boundary_calls": count("calls:tvariety.boundary"),
        "curvepair.lct_g_s": per_op("curvepair.lct_g"),
        "curvepair.lct_g_calls": count("calls:curvepair.lct_g"),
        "curvepair.orbit_classes_s": per_op("curvepair.orbit_classes"),
        "groups.closure_s": per_op("groups.closure"),
        "groups.closure_calls": count("calls:groups.closure"),
        "groups.group_elements": count("groups.group_elements"),
        "groups.orbit_of_s": per_op("groups.orbit_of"),
        "groups.orbit_of_calls": count("calls:groups.orbit_of"),
        "groups.exceptional_orbits_s": per_op("groups.exceptional_orbits"),
        "groups.exceptional_orbits_calls": count("calls:groups.exceptional_orbits"),
        "groups.fixed_sublattice_s": per_op("groups.fixed_sublattice"),
        "exact.simplex_s": per_op("exact.simplex"),
        "exact.simplex_calls": count("calls:exact.simplex"),
        "exact.snf_s": per_op("exact.snf"),
        "exact.snf_calls": count("calls:exact.snf"),
        "quotients.locus_s": per_op("quotients.locus"),
        "quotients.supports": count("quotients.supports"),
        "quotients.polystable_share": ratio("quotients.polystable", "quotients.supports"),
        "polyhedral.refine_s": per_op("polyhedral.refine"),
        "polyhedral.hyperplanes": count("polyhedral.hyperplanes"),
        "polyhedral.sign_patterns": count("cells_built:polyhedral.refine"),
        "polyhedral.cells": count("polyhedral.cells"),
        "polyhedral.cells_per_pattern": ratio("polyhedral.cells", "cells_built:polyhedral.refine"),
        "polyhedral.image_cone_s": per_op("polyhedral.image_cone"),
        "polyhedral.validate_s": per_op("polyhedral.validate"),
        "polyhedral.validate_failures": count("failures:polyhedral.validate"),
    })
    return out


def baseline_diff(workload: str, counts: dict) -> dict | None:
    """Counts that differ from the recorded baseline, as (baseline, now)."""
    path = os.path.join(HERE, "baseline_counts.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)["workloads"].get(workload)
    if baseline is None:
        return None
    keys = sorted(set(baseline["totals"]) | set(counts))
    return {k: [baseline["totals"].get(k), counts.get(k)] for k in keys if baseline["totals"].get(k) != counts.get(k)}


def check_metric_names(trace: int, metrics: dict):
    """The run reports exactly the metrics BENCHMARK.json lists for its mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(listed) != sorted(metrics):
        raise BenchmarkError(f"metrics {sorted(set(listed) ^ set(metrics))} disagree with BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        run = run_traced(args) if args.trace else run_untraced(args)
        check_metric_names(args.trace, run["metrics"])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    samples = run["samples"]
    attempted = len(samples["latency_s"])
    unexpected = samples["unexpected"]
    correct = samples["failed"] == samples["known_defects"]
    record = {"facts": facts(args, run["worker"]), "correct": correct, "unexpected_failures": unexpected,
              "known_defects": samples["known_defects"], "metrics": run["metrics"],
              "cycles": samples["cycles"], "reused_generator_share": samples["reused"] / attempted}
    if args.trace:
        record.update({k: run[k] for k in ("counts", "per_command_counts", "counts_repeat", "count_passes_compared")})
        record["counts_vs_baseline"] = baseline_diff(args.workload, run["counts"])
        record["missing_targets"] = run["worker"]["missing"]
        record["per_command_split_ms"] = run["worker"].get("per_command_split_ms")
        record["spans_file"] = run["worker"]["spans_file"]
        correct = correct and run["counts_repeat"]
        record["correct"] = correct
    else:
        record.update(run["extra"])
    out_dir = os.path.join(RUN_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print("perfbench facts: " + json.dumps(record["facts"], sort_keys=True))
    shown = dict(run["metrics"])
    if not args.trace:
        shown["error_rate"] = run["extra"]["error_rate"]
        print(f"perfbench samples: {run['extra']['samples']} operations, "
              f"{run['extra']['samples_beyond_p90']} beyond p90, {samples['failed']} failed "
              f"({samples['known_defects']} by the documented refinement defect)")
    else:
        print(f"perfbench counts repeat across {run['count_passes_compared']} count passes: {run['counts_repeat']}; "
              f"differences from baseline_counts.json: {json.dumps(record['counts_vs_baseline'])}")
    for name, m in shown.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    for line in unexpected:
        print(f"perfbench unexpected failure: {line}")
    print(f"perfbench record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": samples["failed"],
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
