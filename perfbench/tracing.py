"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each symfano module from
outside the package.  A function is replaced in every symfano module
namespace that holds it, because a name bound by ``from ... import`` does not
see a patch on the defining module: ``symfano.quotients.solve_positive_combination``
is wrapped inside ``symfano.quotients`` as well as inside ``symfano.exact``.

Each call becomes a span (name, start, end, parent, operation id, ok).  Spans
stay in memory; ``self_times`` turns them into self time per layer (span time
minus the time of its child spans) and ``write_spans`` stores them when the run
ends.  Counts that need the arguments or the result of a call are taken by
post hooks after the span has ended.  They run only while ``counting`` is on:
in the count pass, and in traced CLI subprocesses, where their (small) time
falls into the enclosing span.

This module imports only ``sys`` and ``time`` at the top, so loading it in a
traced CLI subprocess after ``symfano.cli`` leaves the import timings alone.
"""

from __future__ import annotations

import sys
import time

perf_counter = time.perf_counter

# (module, attribute path, span name).  Several functions may share a span
# name; their spans then count as one layer.
TARGETS = (
    ("symfano.cli", "Report.render", "cli.render"),
    ("symfano.cli", "Report.to_json", "cli.render"),
    ("symfano.schemas", "read_json", "schemas.load"),
    ("symfano.schemas", "validate_data", "schemas.load"),
    ("symfano.schemas", "load_variety", "schemas.load"),
    ("symfano.schemas", "load_pair", "schemas.load"),
    ("symfano.schemas", "load_weights", "schemas.load"),
    ("symfano.schemas", "load_chow", "schemas.load"),
    ("symfano.schemas", "load_lattice", "schemas.load"),
    ("symfano.tvariety", "ke_verdict", "tvariety.ke_verdict"),
    ("symfano.tvariety", "glct_info", "tvariety.glct_info"),
    ("symfano.tvariety", "boundary", "tvariety.boundary"),
    ("symfano.curvepair", "lct_g", "curvepair.lct_g"),
    ("symfano.curvepair", "is_valuable", "curvepair.is_valuable"),
    ("symfano.curvepair", "orbit_classes", "curvepair.orbit_classes"),
    ("symfano.groups", "closure", "groups.closure"),
    ("symfano.groups", "orbit_of", "groups.orbit_of"),
    ("symfano.groups", "exceptional_orbits", "groups.exceptional_orbits"),
    ("symfano.groups", "fixed_sublattice", "groups.fixed_sublattice"),
    ("symfano.exact", "solve_positive_combination", "exact.simplex"),
    ("symfano.exact", "smith_normal_form", "exact.snf"),
    ("symfano.quotients", "polystable_locus", "quotients.locus"),
    ("symfano.quotients", "chow_quotient_fan", "quotients.chow_quotient_fan"),
    ("symfano.polyhedral", "common_refinement", "polyhedral.refine"),
    ("symfano.polyhedral", "image_cone", "polyhedral.image_cone"),
    ("symfano.polyhedral", "Fan.validate", "polyhedral.validate"),
)

# Cells the refinement builds: Cone.from_halfspaces calls, counted per
# enclosing span but not timed (there are 2^k of them).
CELL_CONSTRUCTOR = ("symfano.polyhedral", "Cone.from_halfspaces")

OP_SPAN = "op"
# prefix of the stderr line a traced CLI subprocess reports on
MARKER = "@@perfbench-trace "


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.counting = False
        self.paused = False
        self.missing: list[str] = []
        self.patches: list = []  # (owner, attribute, original, wrapper)

    def bump(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def enclosing(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name: str, fn, args, kwargs, post=None):
        if self.paused:
            return fn(*args, **kwargs)
        spans = self.spans
        index = len(spans)
        spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, False])
        self.stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[index][1:3] = (start, perf_counter())
            self.stack.pop()
            raise
        spans[index][1:3] = (start, perf_counter())
        spans[index][5] = True
        self.stack.pop()
        if post is not None and self.counting:
            self.paused = True
            try:
                post(self, args, result)
            finally:
                self.paused = False
        return result

    def detach(self):
        """Put the original functions back, for an untraced stretch."""
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def attach(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def run_op(self, fn, *args):
        """One benchmark operation as the root span of its layer spans."""
        self.op += 1
        return self.call(OP_SPAN, fn, args, {})


# ---------------------------------------------------------------------------
# counts taken from arguments and results (count pass only)
# ---------------------------------------------------------------------------


def _after_closure(tracer, args, group):
    tracer.bump("groups.group_elements", group.order)


def _after_locus(tracer, args, rows):
    tracer.bump("quotients.supports", len(rows))
    tracer.bump("quotients.polystable", sum(1 for _, verdict, _ in rows if verdict))


def _after_refine(tracer, args, fan):
    hyperplanes = set()
    for cone in args[0]:
        for h in cone.facet_normals():
            hyperplanes.add(max(h, tuple(-x for x in h)))
    tracer.bump("polyhedral.hyperplanes", len(hyperplanes))
    tracer.bump("polyhedral.cells", len(fan.maximal_cones))


POST_HOOKS = {
    "groups.closure": _after_closure,
    "quotients.locus": _after_locus,
    "polyhedral.refine": _after_refine,
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name)
    if module is None:
        return None, None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


def _function_wrapper(tracer: Tracer, name: str, fn):
    post = POST_HOOKS.get(name)

    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, post)

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> Tracer:
    """Wrap every target in every loaded symfano module that refers to it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "symfano" or n.startswith("symfano.")]
    for module_name, path, name in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        wrapper = _function_wrapper(tracer, name, original)
        if isinstance(owner, type):
            tracer.patches.append((owner, attr, original, wrapper))
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    tracer.patches.append((module, key, original, wrapper))

    owner, attr = _resolve(*CELL_CONSTRUCTOR)
    method = None if owner is None else owner.__dict__.get(attr)
    if not isinstance(method, classmethod):
        tracer.missing.append(".".join(CELL_CONSTRUCTOR))
    else:
        build = method.__func__

        def counted(cls, *args, **kwargs):
            if not tracer.paused:
                tracer.bump(f"cells_built:{tracer.enclosing()}")
            return build(cls, *args, **kwargs)

        tracer.patches.append((owner, attr, method, classmethod(counted)))
    tracer.attach()
    return tracer


# ---------------------------------------------------------------------------
# aggregation and output
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus child-span durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def failed_calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name and not s[5])


def write_spans(path, spans):
    """Spans as gzipped JSON lines: name, start, end, parent, op, ok."""
    import gzip
    import json

    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def run_cli(t_start: float, t_imported: float):
    """Body of a traced CLI subprocess, called once ``symfano.cli`` is imported.

    Runs the command with every target wrapped and counting on, then writes
    one marker line to stderr with the import and compute times, the spans and
    the counts, and exits with the command's exit code.
    """
    import json

    import symfano.cli

    tracer = install(Tracer())
    tracer.counting = True
    t_run = perf_counter()
    code = tracer.run_op(symfano.cli.run)
    t_done = perf_counter()
    sys.stdout.flush()
    record = {
        "import_s": t_imported - t_start,
        "compute_s": t_done - t_run,
        "inside_s": t_done - t_start,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "missing": tracer.missing,
    }
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    sys.stderr.flush()
    raise SystemExit(code)

