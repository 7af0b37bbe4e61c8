"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py as ``python worker.py ROOT WORKLOAD SEED SECONDS MODE LIMIT``.
It prints ``ready`` once set-up is done, then one JSON line with what it
measured.  Modes:

* ``setup``    set up and exit (a set-up time sample);
* ``measure``  the timed loop, no tracing;
* ``traced``   a count pass, then cycles alternating between untraced and
  traced (every layer wrapped);
* ``count``    the count pass alone, to check that counts repeat.

One client, one process: the next operation starts when the previous one has
finished and its output has been checked.  Only the operation is timed; input
files are written, outputs checked and reference loops run between operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import reference

ROOT, WORKLOAD, SEED, SECONDS, MODE, LIMIT_S = sys.argv[1:7]
SEED = int(SEED)
SECONDS = float(SECONDS)
# the loop stops after this much wall time even short of its cycles
LIMIT_S = float(LIMIT_S)

# p90 needs ten samples beyond it
MIN_OPS = 100
# a reference loop runs before an operation once this much operation time
# has passed since the last one
REFERENCE_EVERY_S = 0.05

# warm-up inputs do not depend on the seed
WARMUP_SEED = 7919
# count passes use fixed inputs, so counts compare across runs and commits
COUNT_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, "_run")
WORK_DIR = os.path.join(RUN_DIR, "work", f"{WORKLOAD}-{os.getpid()}")
INPUT_PATH = os.path.join(WORK_DIR, "input.json")

# traced CLI subprocess: time the import of symfano.cli, then hand over
CLI_TRACED = (
    "import sys, time; t0 = time.perf_counter(); import symfano.cli; t1 = time.perf_counter(); "
    f"sys.path.insert(0, {HERE!r}); import tracing; tracing.run_cli(t0, t1)"
)
SUBPROCESS_TIMEOUT_S = 120


def cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def importtime_self_us(stderr: str) -> dict[str, int]:
    """Self import time per symfano module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module == "symfano" or module.startswith("symfano."):
            try:
                out[module] = int(parts[0])
            except ValueError:
                continue
    return out


class CliRunner:
    """Runs operations as symfano subprocesses."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.records: list[dict | None] = []  # per traced op: split, spans, counts

    def __call__(self, argv: list[str]):
        from workloads import CLI_ENTRY, Outcome

        if self.traced:
            cmd = [sys.executable, "-X", "importtime", "-c", CLI_TRACED, *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S)
        wall = time.perf_counter() - start
        stderr = proc.stderr
        if self.traced:
            stderr = self._take_trace(stderr, wall)
        return Outcome(proc.returncode, proc.stdout, stderr)

    def _take_trace(self, stderr: str, wall: float) -> str:
        import tracing

        kept = []
        record = None
        for line in stderr.splitlines(keepends=True):
            if line.startswith(tracing.MARKER):
                record = json.loads(line[len(tracing.MARKER):])
            elif not line.startswith("import time:"):
                kept.append(line)
        if record is not None:
            record["interp_s"] = wall - record.pop("inside_s")
            record["import_us"] = importtime_self_us(stderr)
        self.records.append(record)
        return "".join(kept)


class InProcessRunner:
    """Runs operations as ``symfano.cli.run`` calls in this process."""

    def __init__(self, tracer=None):
        import symfano.cli

        self.run = symfano.cli.run
        self.tracer = tracer

    def __call__(self, argv: list[str]):
        from workloads import Outcome

        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    code = self.run(argv)
                else:
                    code = self.tracer.run_op(self.run, argv)
            except Exception as exc:  # an escaped exception is a failed operation
                error = f"{type(exc).__name__}: {exc}"
        return Outcome(code, out.getvalue(), err.getvalue(), error)


def write_input(op):
    if op.document is None:
        return op.argv
    with open(INPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(op.document, handle)
    return [INPUT_PATH if a == "{input}" else a for a in op.argv]


def take_reference(samples: dict):
    wall, cpu = reference.measure()
    samples["ref_wall_s"].append(wall)
    samples["ref_cpu_s"].append(cpu)
    samples["since_ref_s"] = 0.0


def run_ops(workload, ops, runner, children: bool, samples: dict):
    """Run operations one after another, timing each and checking its output.
    Reference loops run between operations; each operation records the index
    of the last one before it."""
    for op in ops:
        if not samples["ref_wall_s"] or samples["since_ref_s"] >= REFERENCE_EVERY_S:
            take_reference(samples)
        argv = write_input(op)
        cpu0 = cpu_seconds(children)
        t0 = time.perf_counter()
        outcome = runner(argv)
        t1 = time.perf_counter()
        cpu1 = cpu_seconds(children)
        failure = check(workload, op, outcome, getattr(runner, "tracer", None))
        samples["latency_s"].append(t1 - t0)
        samples["cpu_s"].append(cpu1 - cpu0)
        samples["ref_pos"].append(len(samples["ref_wall_s"]) - 1)
        samples["since_ref_s"] += t1 - t0
        samples["labels"].append(op.label)
        samples["reused"] += bool(op.expect.get("reused"))
        if failure is not None:
            samples["failed"] += 1
            known = workload.known_defect(op, outcome)
            samples["known_defects"] += known
            if not known and len(samples["unexpected"]) < 20:
                samples["unexpected"].append(f"{op.label}: {failure}")


def check(workload, op, outcome, tracer):
    """The operation's output check, with tracing suspended: the checks call
    symfano too, and their calls are not the operation's work."""
    if tracer is None:
        return op.failure(workload, outcome)
    tracer.paused = True
    try:
        return op.failure(workload, outcome)
    finally:
        tracer.paused = False


def new_samples() -> dict:
    return {"latency_s": [], "cpu_s": [], "labels": [], "failed": 0, "known_defects": 0, "reused": 0, "unexpected": [],
            "ref_wall_s": [], "ref_cpu_s": [], "ref_pos": [], "since_ref_s": 0.0}


def cycle_count(workload) -> int:
    """Whole cycles for SECONDS of operation time at the reference speed, and
    at least MIN_OPS operations.  The count depends on the workload and
    SECONDS alone, so every run of a seed attempts the same operations."""
    size = workload.cycle_size()
    return max(math.ceil(MIN_OPS / size), round(SECONDS / workload.cycle_s))


def closed_loop(workload, runner, children: bool) -> dict:
    """A fixed number of whole cycles (stopped early only past LIMIT_S)."""
    samples = new_samples()
    started = time.perf_counter()
    cycles = 0
    for _ in range(cycle_count(workload)):
        run_ops(workload, workload.cycle(), runner, children, samples)
        cycles += 1
        if time.perf_counter() - started > LIMIT_S:
            break
    take_reference(samples)
    samples["cycles"] = cycles
    return samples


def alternating_loop(workload, plain, traced, children: bool, trace_on) -> tuple[dict, dict]:
    """Cycles alternate between an untraced and a traced runner, so that both
    see the same machine; ``trace_on(flag)`` switches tracing.  Runs the
    cycles of ``closed_loop`` on each side."""
    samples = {False: new_samples(), True: new_samples()}
    started = time.perf_counter()
    cycles = 0
    for _ in range(cycle_count(workload)):
        for flag, runner in ((False, plain), (True, traced)):
            trace_on(flag)
            run_ops(workload, workload.cycle(), runner, children, samples[flag])
        cycles += 1
        if time.perf_counter() - started > LIMIT_S:
            break
    for s in samples.values():
        take_reference(s)
        s["cycles"] = cycles
    return samples[False], samples[True]


def load_goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as handle:
        return json.load(handle)["commands"]


def setup():
    """Import, build the workload and warm it up.  Returns (workload, goldens)."""
    import symfano.cli  # noqa: F401  (part of set-up time)
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    goldens = load_goldens() if WORKLOAD == workloads.CliFixtures.name else None
    workload = workloads.make(WORKLOAD, SEED, goldens)
    warm = workloads.make(WORKLOAD, WARMUP_SEED, goldens)
    if workload.in_process:
        runner = InProcessRunner()
    else:
        runner = CliRunner(traced=False)
        # compiles the package into the benchmark's bytecode cache if needed
        subprocess.run([sys.executable, "-c", "import symfano.cli"], cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT_S)
    run_ops(warm, warm.warmup(), runner, not workload.in_process, new_samples())
    return workload, goldens


def count_pass(goldens):
    """One cycle of fixed inputs with every layer wrapped and counting on.
    Returns the counts and the tracer, whose wrappers stay installed."""
    import tracing
    import workloads

    tracer = tracing.install(tracing.Tracer())
    tracer.counting = True
    workload = workloads.make(WORKLOAD, COUNT_SEED, goldens)
    samples = new_samples()
    run_ops(workload, workload.cycle(), InProcessRunner(tracer), False, samples)
    tracer.counting = False
    counts = span_counts(tracer.spans, tracer.counts)
    tracer.spans.clear()
    tracer.counts.clear()
    return counts, tracer


def cli_probe() -> list[dict]:
    """Interpreter and import split of a few CLI runs, for workloads that do
    not start subprocesses themselves."""
    runner = CliRunner(traced=True)
    argv = ["validate", "src/symfano/fixtures/p2-chow.json"]
    for _ in range(7):
        runner(argv)
    return [r for r in runner.records if r is not None]


def summarise_cli_records(records: list[dict]) -> dict:
    interp = [r["interp_s"] for r in records]
    imp = [r["import_s"] for r in records]
    modules = sorted({m for r in records for m in r["import_us"]})
    return {
        "interp_s": statistics.median(interp),
        "import_s": statistics.median(imp),
        "import_module_s": {m: statistics.median(r["import_us"].get(m, 0) for r in records) / 1e6 for m in modules},
    }


def per_command_split(records: list, labels: list[str]) -> dict:
    """Median interpreter, import and compute milliseconds of each command."""
    by_label: dict[str, list] = {}
    for record, label in zip(records, labels):
        if record is not None:
            by_label.setdefault(label, []).append(record)
    return {
        label: {part: statistics.median(r[f"{part}_s"] for r in rs) * 1000 for part in ("interp", "import", "compute")}
        for label, rs in sorted(by_label.items())
    }


def traced(workload, goldens) -> dict:
    """Count pass, then untraced and traced cycles in turn."""
    import tracing

    result = {}
    if workload.in_process:
        result["counts"], tracer = count_pass(goldens)

        def trace_on(flag):
            if flag:
                tracer.attach()
            else:
                tracer.detach()

        plain, samples = alternating_loop(workload, InProcessRunner(), InProcessRunner(tracer), False, trace_on)
        spans = tracer.spans
        result["cli"] = summarise_cli_records(cli_probe())
        result["compute_s"] = statistics.median(plain["latency_s"])
        result["missing"] = tracer.missing
    else:
        runner = CliRunner(traced=True)
        plain, samples = alternating_loop(workload, CliRunner(traced=False), runner, True, lambda flag: None)
        records = [r for r in runner.records if r is not None]
        spans = []
        for op, record in enumerate(runner.records):
            base = len(spans)
            for name, start, end, parent, _, ok in record["spans"] if record else ():
                spans.append([name, start, end, parent + base if parent >= 0 else -1, op, ok])
        result["cli"] = summarise_cli_records(records)
        result["compute_s"] = statistics.median(r["compute_s"] for r in records)
        result["per_command_split_ms"] = per_command_split(runner.records, samples["labels"])
        result["cycle_counts"] = cli_cycle_counts(runner.records, samples["labels"])
        result["missing"] = records[0]["missing"] if records else []
    result["samples"] = samples
    result["plain_samples"] = plain
    result["self_s"] = tracing.self_times(spans)
    out_dir = os.path.join(RUN_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{WORKLOAD}-seed{SEED}.jsonl.gz")
    tracing.write_spans(path, spans)
    result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def cli_cycle_counts(records: list, labels: list[str]) -> list[dict]:
    """Counts per command for each complete cycle of CLI commands, so that two
    cycles of the same commands can be compared."""
    import workloads

    size = len(workloads.fixture_commands())
    cycles = []
    for start in range(0, len(records) - size + 1, size):
        per_command = {}
        for record, label in zip(records[start:start + size], labels[start:start + size]):
            per_command[label] = {} if record is None else span_counts(record["spans"], record["counts"])
        cycles.append(per_command)
    return cycles


def span_counts(spans, counts: dict) -> dict:
    """Post-hook counts plus calls per layer and failed validations."""
    import tracing

    out = dict(counts)
    for name, calls in tracing.call_counts(spans).items():
        out[f"calls:{name}"] = calls
    out["failures:polyhedral.validate"] = tracing.failed_calls(spans, "polyhedral.validate")
    return out


def main():
    workload, goldens = setup()
    print("ready", flush=True)
    if MODE == "setup":
        return
    import symfano.rationals

    result = {"mode": MODE, "python": sys.version.split()[0], "backend": symfano.rationals.BACKEND}
    if MODE == "count":
        result["counts"], _ = count_pass(goldens)
    elif MODE == "measure":
        runner = InProcessRunner() if workload.in_process else CliRunner(traced=False)
        result["samples"] = closed_loop(workload, runner, not workload.in_process)
        result["peak_rss_kb"] = peak_rss_kb(not workload.in_process)
    elif MODE == "traced":
        result.update(traced(workload, goldens))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    finally:
        import shutil

        shutil.rmtree(WORK_DIR, ignore_errors=True)
