"""The four workloads: the operations each one runs and the checks on their outputs.

A workload hands out operations in cycles.  A cycle has a fixed composition
(which commands, which input shapes); the seed shuffles its order and draws
the input entries.  The benchmark only stops at the end of a cycle, so every
run measures the same mix whatever the seed.

Checks run outside the timed region.  They import symfano lazily, because the
worker imports this module before it has timed the package import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import gen

FIXTURES = "src/symfano/fixtures"
INPUT = "{input}"
# what the installed ``symfano`` console script runs
CLI_ENTRY = "from symfano.cli import main; main()"

# Failure of the refinement's own output check: the documented defect of
# common_refinement (T-junctions left by the greedy merge).
REFINEMENT_DEFECT = "input error: cone intersection is not a common face"


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None  # exception that escaped the command


@dataclass
class Operation:
    label: str
    argv: list[str]
    document: dict | None = None  # written to the input file before the run
    expect: dict = field(default_factory=dict)  # what the check needs

    def failure(self, workload: "Workload", outcome: Outcome) -> str | None:
        """None when the operation succeeded, else why it failed."""
        if outcome.error is not None:
            return f"exception: {outcome.error}"
        return workload.check(self, outcome)


class Workload:
    name = ""
    in_process = True
    # operation seconds of one cycle at the reference speed (reference.py);
    # sets how many cycles a run of --seconds makes
    cycle_s = 1.0

    def cycle_size(self) -> int:
        raise NotImplementedError

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def cycle(self) -> list[Operation]:
        raise NotImplementedError

    def warmup(self) -> list[Operation]:
        raise NotImplementedError

    def check(self, op: Operation, outcome: Outcome) -> str | None:
        raise NotImplementedError

    def known_defect(self, op: Operation, outcome: Outcome) -> bool:
        """Whether a failed operation failed in the documented way."""
        return False


def _round_trip(text: str) -> str | None:
    from symfano.cli import Report

    try:
        again = Report.from_json(text).to_json()
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {type(exc).__name__}: {exc}"
    if again != text.rstrip("\n"):
        return "Report.from_json does not round-trip the report"
    return None


def _json_report(outcome: Outcome) -> tuple[dict | None, str | None]:
    if outcome.code != 0:
        return None, f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}"
    problem = _round_trip(outcome.stdout)
    if problem:
        return None, problem
    report = json.loads(outcome.stdout)
    return {v["claim"]: v for v in report["verdicts"]}, None


# ---------------------------------------------------------------------------
# cli-fixtures: one symfano subprocess per documented command
# ---------------------------------------------------------------------------


def fixture_commands() -> list[list[str]]:
    """Every documented command over the bundled fixtures, text and --json."""

    def f(name):
        return f"{FIXTURES}/{name}.json"

    base = [["tvar", "check", f(n)] for n in ("bidegree12", "quadric", "quadric-blowup", "p2-cstar")]
    base += [[cmd, f(n)] for cmd in ("lct", "valuable") for n in ("pair-involution", "pair-triangle")]
    base += [["git", "locus", f(n)] for n in ("blowup-deform", "hyp12-deform")]
    base += [["git", "polystable", f(n), "--support", "alpha,beta"] for n in ("blowup-deform", "hyp12-deform")]
    base += [["chow", f(n)] for n in ("p2-chow", "p1xp1-chow")]
    base += [["lattice", "symmetric", f("lattice-rotation")]]
    base += [
        ["validate", f(n)]
        for n in (
            "bidegree12", "blowup-deform", "hyp12-deform", "lattice-rotation", "p1xp1-chow", "p2-chow",
            "p2-cstar", "pair-involution", "pair-triangle", "quadric-blowup", "quadric",
        )
    ]
    return [argv + extra for argv in base for extra in ([], ["--json"])]


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliFixtures(Workload):
    """Why: the only workload where interpreter start and import show."""

    name = "cli-fixtures"
    in_process = False
    cycle_s = 3.5

    def __init__(self, seed: int, goldens: dict):
        super().__init__(seed)
        self.goldens = goldens

    def cycle_size(self):
        return len(fixture_commands())

    def cycle(self):
        ops = [Operation(command_key(a), a) for a in fixture_commands()]
        self.rng.shuffle(ops)
        return ops

    def warmup(self):
        return [Operation(command_key(a), a) for a in fixture_commands()[:4]]

    def check(self, op, outcome):
        golden = self.goldens.get(op.label)
        if golden is None:
            return "no golden recorded for this command"
        if outcome.code != golden["exit"]:
            return f"exit code {outcome.code}, golden {golden['exit']}"
        if digest(outcome.stdout) != golden["stdout_sha256"]:
            return "stdout differs from the golden"
        if "--json" in op.argv and outcome.stdout:
            return _round_trip(outcome.stdout)
        return None


# ---------------------------------------------------------------------------
# ke-batch: thresholds and verdicts on generated varieties and pairs
# ---------------------------------------------------------------------------


class KeBatch(Workload):
    """Why: groups, QuadExtScalar, curvepair and tvariety do nearly all the
    work; half of the generator sets repeat, so a group or orbit cache would
    show both hits and misses.

    A cycle is the full product of command, group class and number of marked
    orbits (0 to 3): 120 operations.  In each (command, class) four, two reuse
    a generator set and two are fresh, and one variety in four declares its
    action as permutations.
    """

    name = "ke-batch"
    cycle_s = 1.2
    COMMANDS = ("tvar check", "lct", "valuable")
    ORBITS = (0, 1, 2, 3)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sets = gen.GeneratorSets(self.rng)

    def _op(self, command: str, class_name: str, orbits: int, reuse: bool, declared: bool) -> Operation:
        rng = self.rng
        generators = self.sets.draw(class_name, reuse)
        if command == "tvar check":
            doc = gen.variety_document(rng, generators, class_name, orbits, declared)
        else:
            doc = gen.pair_document(rng, generators, orbits)
        expect = {"order": gen.GROUP_CLASSES[class_name][1], "oracle_seed": rng.getrandbits(32), "reused": reuse}
        return Operation(command, [*command.split(), INPUT, "--json"], doc, expect)

    def cycle_size(self):
        return len(self.COMMANDS) * len(gen.GROUP_CLASSES) * len(self.ORBITS)

    def cycle(self):
        rng = self.rng
        slots = []
        for command in self.COMMANDS:
            for class_name in gen.GROUP_CLASSES:
                reuse = [True, True, False, False]
                declared = [True, False, False, False]
                rng.shuffle(reuse)
                rng.shuffle(declared)
                slots.extend(zip([command] * 4, [class_name] * 4, self.ORBITS, reuse, declared))
        rng.shuffle(slots)
        return [self._op(*slot) for slot in slots]

    def warmup(self):
        return [self._op(c, "C2", 1, False, False) for c in self.COMMANDS]

    def check(self, op, outcome):
        verdicts, problem = _json_report(outcome)
        if problem:
            return problem
        if op.label == "tvar check":
            if "ke_certified" not in verdicts or "glct" not in verdicts:
                return "verdict pipeline incomplete"
            if "moebius_generators" not in op.document["symmetry"]:
                return None
            return self._check_glct(op, verdicts["glct"]["value"])
        if verdicts["group_order"]["value"] != op.expect["order"]:
            return f"group order {verdicts['group_order']['value']}, expected {op.expect['order']}"
        if op.label == "lct":
            return self._check_lct(op, op.document, verdicts["lct"]["value"], cap=False)
        return None

    def _check_glct(self, op, value):
        doc = op.document
        points = []
        for fiber in doc["fibers"]:
            m = max(d["order"] for d in fiber["divisors"])
            if m > 1:
                points.append({"pt": fiber["point"], "coeff": f"{m - 1}/{m}"})
        pair = {"points": points, "moebius_generators": doc["symmetry"]["moebius_generators"]}
        return self._check_lct(op, pair, value, cap=True)

    @staticmethod
    def _check_lct(op, pair_doc, value, cap):
        """Compare a reported threshold with ``selftest.lct_oracle``."""
        from symfano.groups import closure
        from symfano.rationals import rat_str
        from symfano.schemas import load_pair
        from symfano.selftest import lct_oracle

        pair, generators = load_pair(pair_doc)
        oracle = lct_oracle(pair, closure(generators), random.Random(op.expect["oracle_seed"]))
        if cap:
            expected = "1" if oracle is None or oracle > 1 else rat_str(oracle)
        else:
            expected = "infinite" if oracle is None else rat_str(oracle)
        if value != expected:
            return f"threshold {value}, oracle {expected}"
        return None


# ---------------------------------------------------------------------------
# git-locus and chow-refine: fixed templates in seeded coordinates
# ---------------------------------------------------------------------------


class TemplateWorkload(Workload):
    """Operations on a fixed list of templates.

    The templates are drawn once from a fixed seed; the run's seed only
    changes how each is written down (see gen.py) and the order of the
    cycle.  So
    every seed runs the same mix of problem structures, and a cycle costs
    about the same whatever the seed.  ``SLOTS`` lists (shape, copies): one
    template of that shape, run ``copies`` times per cycle.  Where a
    percentile would otherwise fall between two templates of different cost,
    a template with copies spans it, so the percentile measures one problem's
    cost rather than the gap between two.
    """

    SLOTS: list = []

    def __init__(self, seed: int):
        super().__init__(seed)
        template_rng = random.Random(f"{self.name} templates")
        self.templates = [(shape, self.template(template_rng, shape), copies) for shape, copies in self.SLOTS]

    def template(self, rng, shape):
        raise NotImplementedError

    def operation(self, shape, template) -> Operation:
        raise NotImplementedError

    def cycle_size(self):
        return sum(copies for _, _, copies in self.templates)

    def cycle(self):
        slots = [(shape, template) for shape, template, copies in self.templates for _ in range(copies)]
        self.rng.shuffle(slots)
        return [self.operation(shape, template) for shape, template in slots]

    def warmup(self):
        """The three cheapest templates: SLOTS lists the cheapest first."""
        return [self.operation(shape, template) for shape, template, _ in self.templates[:3]]


class GitLocus(TemplateWorkload):
    """Why: 2^n - 1 phase-one LPs on Fraction tableaux per operation, and 2^n
    rendered verdict lines.  The median falls inside the n = 8 slots and the
    90th percentile inside the n = 11 slots, the 2^n tail."""

    name = "git-locus"
    cycle_s = 2.5
    # ((coordinates, torus rank), copies): 22 operations per cycle, cheapest
    # first; the median lies among the n = 8 copies, the p90 among the n = 11
    SLOTS = (
        [((n, r), 1) for n in (6, 7) for r in (1, 2, 3)]
        + [((8, 2), 8)]
        + [((9, 2), 1), ((9, 3), 1)]
        + [((10, r), 1) for r in (1, 2, 3)]
        + [((11, 2), 3)]
    )

    def template(self, rng, shape):
        return gen.weights_template(rng, *shape)

    def operation(self, shape, template):
        doc = gen.weights_document(self.rng, template)
        return Operation(f"git locus n={shape[0]} r={shape[1]}", ["git", "locus", INPUT, "--json"], doc)

    def check(self, op, outcome):
        from symfano.exact import PositiveCombination
        from symfano.quotients import Destabilizer, verify_stability_cert
        from symfano.rationals import parse_rat
        from symfano.schemas import load_weights

        verdicts, problem = _json_report(outcome)
        if problem:
            return problem
        weights, _ = load_weights(op.document)
        rows = [v for claim, v in verdicts.items() if claim.startswith("support {")]
        if len(rows) != 2 ** weights.coordinates:
            return f"{len(rows)} support verdicts for {weights.coordinates} coordinates"
        polystable = []
        for v in rows:
            inner = v["claim"][len("support {"):-1]
            support = () if inner == "empty" else tuple(inner.split(", "))
            cert = v["certificate"]
            if cert["type"] == "positive-combination":
                obj = PositiveCombination(tuple(parse_rat(c) for c in cert["coefficients"]))
            else:
                obj = Destabilizer(tuple(cert["one_parameter_subgroup"]))
            if (cert["type"] == "positive-combination") != v["value"]:
                return f"verdict and certificate disagree on {support}"
            if not verify_stability_cert(weights, support, obj):
                return f"certificate for {support} fails verify_stability_cert"
            if v["value"]:
                polystable.append(list(support))
        if sorted(polystable) != sorted(verdicts["polystable_supports"]["value"]):
            return "polystable_supports does not list the polystable verdicts"
        return None


class ChowRefine(TemplateWorkload):
    """Why: the only workload that measures polyhedral (2^k sign patterns,
    double description, Fan.validate).  The rank-3 families hit the
    documented T-junction defect; they stay in the mix, so the defect shows
    as failed operations.  The three copies of the three-cone family are the
    costliest operations of a cycle, so the 90th percentile lies among them.

    Coordinates are fixed per template (drawn from the template itself) and
    the seed draws the order of the cones: see gen.chow_document."""

    name = "chow-refine"
    cycle_s = 2.6
    # ((target rank, image cones, ray directions), copies): 16 rank-2 and 5
    # rank-3 operations per cycle; "t-junction" is the documented two-cone
    # reproducer of the defect
    SLOTS = (
        [((2, 3, 4), 1)] * 3 + [((2, 3, 5), 1)] * 4 + [((2, 4, 6), 1)] * 4
        + [((2, 4, 7), 1)] * 3 + [((2, 5, 8), 1), ((2, 6, 8), 1)]
        + [("t-junction", 2), ((3, 3, 5), 3)]
    )

    def template(self, rng, shape):
        images = gen.T_JUNCTION if shape == "t-junction" else gen.chow_template(rng, *shape)
        return images, gen.chow_lift(random.Random(repr(images)), images)

    def operation(self, shape, template):
        images, lift = template
        doc = gen.chow_document(self.rng, images, lift)
        rank = len(images[0][0])
        return Operation(f"chow rank={rank}", ["chow", INPUT, "--json"], doc, {"rank": rank})

    def check(self, op, outcome):
        verdicts, problem = _json_report(outcome)
        if problem:
            return problem
        rank = op.expect["rank"]
        if verdicts["target_rank"]["value"] != rank:
            return "wrong target rank"
        cells = verdicts["maximal_cells"]["value"]
        if not cells or len(cells) != verdicts["maximal_cell_count"]["value"]:
            return "maximal cells do not match their count"
        if verdicts["cell_count"]["value"] < len(cells):
            return "fewer cells than maximal cells"
        for cell in cells:
            if any(len(v) != rank for v in cell["rays"] + cell["lines"]):
                return "cell vector of the wrong length"
        return None

    def known_defect(self, op, outcome):
        return outcome.error is None and outcome.code == 1 and outcome.stderr.strip() == REFINEMENT_DEFECT


def make(name: str, seed: int, goldens: dict | None = None) -> Workload:
    if name == CliFixtures.name:
        return CliFixtures(seed, goldens or {})
    for cls in (KeBatch, GitLocus, ChowRefine):
        if cls.name == name:
            return cls(seed)
    raise KeyError(name)


NAMES = (CliFixtures.name, KeBatch.name, GitLocus.name, ChowRefine.name)
