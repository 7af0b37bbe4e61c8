"""Command-line front end.

Subcommands::

    symfano tvar check FILE      symmetry, boundary, fiber counts, thresholds, verdict
    symfano lct FILE             equivariant threshold of a marked pair
    symfano valuable FILE        the invariant-divisor log canonicity test
    symfano git polystable FILE --support a,b,c
    symfano git locus FILE       all 2^n support verdicts, with the claimed-locus check
    symfano chow FILE            refinement fan of the projected maximal cones
    symfano lattice symmetric FILE
    symfano validate FILE        schema diagnostics only
    symfano selftest [--seed N] [--cases N]

``--json`` switches any reporting command to a machine-readable report that
round-trips losslessly.  Exit codes: 0 ok, 1 input or schema error, 2 blown
computation cap (Moebius generators of an infinite group, a support
enumeration too large), 3 violated mathematical precondition, 4 internal
error (a computed result failed its own run-time check; a bug, not a property
of the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring as _encode_str

from .errors import (
    ComputationCapError,
    InputError,
    InternalError,
    PreconditionError,
)
from .rationals import rat_str, ratio_str
from .schemas import detect_kind, read_json, validate_data

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class _Record:
    """Value equality and a keyword repr over the instance's fields."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Verdict(_Record):
    def __init__(self, claim: str, value, route: str | None = None, certificate=None):
        self.claim = claim
        self.value = value
        self.route = route
        self.certificate = certificate


class Report(_Record):
    def __init__(
        self,
        subject: str,
        verdicts: list[Verdict] | None = None,
        warnings: list[str] | None = None,
        report_version: int = REPORT_VERSION,
    ):
        self.subject = subject
        self.verdicts = [] if verdicts is None else verdicts
        self.warnings = [] if warnings is None else warnings
        self.report_version = report_version

    def add(self, claim, value, route=None, certificate=None):
        self.verdicts.append(Verdict(claim, value, route, certificate))

    def warn(self, message: str):
        self.warnings.append(message)

    def to_dict(self) -> dict:
        return {
            "report_version": self.report_version,
            "subject": self.subject,
            "verdicts": [dict(vars(v)) for v in self.verdicts],
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        """The report as JSON: two-space indent, sorted keys, non-ASCII written
        unescaped.  The bytes are those of ``json.dumps`` with an indent of 2,
        sorted keys and ``ensure_ascii`` off, without its pure-Python encoder."""
        out = []
        _write_json(self.to_dict(), "\n", out)
        return "".join(out)

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(
            subject=data["subject"],
            verdicts=[Verdict(**v) for v in data["verdicts"]],
            warnings=list(data["warnings"]),
            report_version=data["report_version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))

    def render(self) -> str:
        lines = [f"subject: {self.subject}"]
        for v in self.verdicts:
            value = json.dumps(v.value, sort_keys=True, ensure_ascii=False) if not isinstance(v.value, str) else v.value
            line = f"  {v.claim}: {value}"
            if v.route is not None:
                line += f"  [{v.route}]"
            lines.append(line)
            if v.certificate is not None:
                lines.append(f"    certificate: {json.dumps(v.certificate, sort_keys=True, ensure_ascii=False)}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def _write_json(node, newline: str, out: list) -> None:
    """Append the indent-2 JSON text of ``node`` to ``out``; ``newline`` is a
    line break and the indentation of the line that holds ``node``.  Dict keys
    must be strings; a leaf that is not a str, bool, None or int goes to
    ``json.dumps``."""
    if isinstance(node, str):
        out.append(_encode_str(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif type(node) is int:
        out.append(int.__repr__(node))
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(node):
            out.append(sep + _encode_str(key) + ": ")
            _write_json(node[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is str for x in node):
            out.append("[" + inner + ("," + inner).join(map(_encode_str, node)) + newline + "]")
        elif all(type(x) is int for x in node):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, node)) + newline + "]")
        else:
            sep = "[" + inner
            for item in node:
                out.append(sep)
                _write_json(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(json.dumps(node))


def _cert_dict(polystable: bool, cert) -> dict:
    """A stability certificate: a PositiveCombination for a polystable
    support, else a Destabilizer."""
    if polystable:
        den = cert.denominator
        return {
            "type": "positive-combination",
            "coefficients": [ratio_str(n, den) for n in cert.numerators],
        }
    return {"type": "destabilizer", "one_parameter_subgroup": list(cert.vector)}


# ---------------------------------------------------------------------------
# subcommands: each fills the report for one input document and returns the
# exit code; ``run`` reads the file, names the report, prints it and maps errors.
# Each imports the modules it computes with, so a command loads no others.
# ---------------------------------------------------------------------------


def _tvar_check(report: Report, data: dict, args) -> int:
    from .curvepair import is_neg_infinity
    from .schemas import load_variety
    from .tvariety import analyze

    analysis = analyze(load_variety(data))
    report.add("symmetric", analysis.symmetric)
    report.add(
        "boundary",
        [
            {"point": str(p), "coeff": "-inf" if is_neg_infinity(c) else rat_str(c)}
            for p, c in analysis.boundary
        ],
    )
    report.add("non_reduced_fibers", [str(p) for p in analysis.non_reduced])
    report.add("non_reduced_count", len(analysis.non_reduced))
    info = analysis.glct
    if isinstance(info, PreconditionError):
        report.add("glct", None, route=f"{type(info).__name__}: {info}")
    else:
        res = analysis.quotient_lct
        if res is not None:  # its witness is the glct's
            report.add(
                "lct_of_quotient_pair",
                "infinite" if res.is_infinite else rat_str(res.value),
                certificate=info.witness,
            )
        report.add(
            "glct",
            rat_str(info.value),
            route="lower-bound" if info.is_lower_bound else "exact",
            certificate=info.witness,
        )
    verdict = analysis.verdict
    if isinstance(verdict, PreconditionError):
        report.add("ke_certified", None, route=f"{type(verdict).__name__}: {verdict}")
        return EXIT_PRECONDITION
    report.add(
        "ke_certified",
        verdict.certified,
        route=verdict.route if verdict.certified else "inconclusive",
        certificate={k: verdict.details[k] for k in sorted(verdict.details)},
    )
    for w in verdict.warnings:
        report.warn(w)
    return EXIT_OK


def _pair_and_group(report: Report, data: dict):
    from .groups import closure
    from .schemas import load_pair

    pair, generators = load_pair(data)
    group = closure(generators)
    report.add("group_order", group.order)
    return pair, group


def _lct(report: Report, data: dict, args) -> int:
    from .curvepair import lct_g

    res = lct_g(*_pair_and_group(report, data))
    report.add(
        "lct",
        "infinite" if res.is_infinite else rat_str(res.value),
        certificate=None if res.witness is None else res.witness.describe(),
    )
    return EXIT_OK


def _valuable(report: Report, data: dict, args) -> int:
    from .curvepair import is_valuable

    ok, witness = is_valuable(*_pair_and_group(report, data))
    report.add(
        "valuable",
        ok,
        certificate=None if witness is None else f"violating class: {witness.describe()}",
    )
    return EXIT_OK


def _git_polystable(report: Report, data: dict, args) -> int:
    from .quotients import is_polystable
    from .schemas import load_weights

    weights, _ = load_weights(data)
    support = [s for s in (part.strip() for part in args.support.split(",")) if s]
    verdict, cert = is_polystable(weights, support)
    report.add("support", support)
    report.add("polystable", verdict, certificate=_cert_dict(verdict, cert))
    return EXIT_OK


def _claimed_polystable(support, claimed) -> bool:
    if not support:
        return True
    return any(set(piece) <= set(support) for piece in claimed)


def _git_locus(report: Report, data: dict, args) -> int:
    from .quotients import polystable_locus
    from .schemas import load_weights

    weights, claimed = load_weights(data)
    mismatches = []
    polystable_supports = []
    for support, verdict, cert in polystable_locus(weights):
        report.add(
            f"support {{{', '.join(support) or 'empty'}}}",
            verdict,
            certificate=_cert_dict(verdict, cert),
        )
        if verdict:
            polystable_supports.append(list(support))
        if claimed is not None and _claimed_polystable(support, claimed) != verdict:
            mismatches.append(support)
    report.add("polystable_supports", polystable_supports)
    if claimed is not None:
        if mismatches:
            report.warn(
                "computed verdicts disagree with the stated locus on: "
                + "; ".join("{" + ", ".join(s) + "}" for s in mismatches)
                + " (the computed limit certificates are authoritative)"
            )
        else:
            report.add("stated_locus_check", "agrees")
    return EXIT_OK


def _chow(report: Report, data: dict, args) -> int:
    from .quotients import chow_quotient_fan, lower_dimensional_images
    from .schemas import load_chow

    fan, projection = load_chow(data)
    out = chow_quotient_fan(fan, projection)
    report.add("target_rank", out.ambient_rank)
    report.add("cell_count", len(out.cones))
    report.add("maximal_cell_count", len(out.maximal_cones))
    report.add(
        "maximal_cells",
        [
            {"rays": [list(r) for r in c.rays], "lines": [list(l) for l in c.lineality_basis]}
            for c in out.maximal_cones
        ],
    )
    flat = lower_dimensional_images(fan, projection)
    if flat:
        report.warn(
            "the images of these maximal cones are lower-dimensional and hold no cell: "
            + "; ".join("cone(" + ", ".join(str(tuple(g)) for g in c.generators) + ")" for c in flat)
        )
    return EXIT_OK


def _lattice_symmetric(report: Report, data: dict, args) -> int:
    from .groups import fixed_sublattice
    from .schemas import load_lattice

    group = load_lattice(data)
    basis = fixed_sublattice(group)
    report.add("fixed_sublattice_rank", len(basis))
    report.add("fixed_sublattice_basis", [list(v) for v in basis])
    report.add("symmetric", not basis)
    return EXIT_OK


def _validate(report: Report, data: dict, args) -> int:
    problems = validate_data(data)
    report.add("format", detect_kind(data) if not problems else "unknown")
    for p in problems:
        report.add("problem", p)
    if problems:
        return EXIT_INPUT
    report.add("schema", "OK")
    return EXIT_OK


GROUPS = {
    "tvar": "complexity-one variety commands",
    "git": "torus orbit-closedness commands",
    "lattice": "character lattice commands",
}

# (words, help, handler) per leaf command, in ``--help`` order; ``selftest``
# has no handler: it reads no file and builds its own report
COMMANDS = (
    (("tvar", "check"), "full verdict pipeline for a variety file", _tvar_check),
    (("lct",), "equivariant threshold of a marked pair file", _lct),
    (("valuable",), "invariant log canonicity test for a pair file", _valuable),
    (("git", "polystable"), "verdict for one support", _git_polystable),
    (("git", "locus"), "verdicts for every support subset", _git_locus),
    (("chow",), "refinement fan of the projected maximal cones", _chow),
    (("lattice", "symmetric"), "fixed sublattice and symmetry test", _lattice_symmetric),
    (("validate",), "schema diagnostics, no computation", _validate),
    (("selftest",), "seeded randomized property suites", None),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfano",
        description="Exact existence certificates for complexity-one torus varieties.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_text, handler in COMMANDS:
        if words[:-1] not in subparsers:
            group = subparsers[()].add_parser(words[0], help=GROUPS[words[0]])
            subparsers[words[:-1]] = group.add_subparsers(dest=f"{words[0]}_command", required=True)
        leaf = subparsers[words[:-1]].add_parser(words[-1], help=help_text)
        if handler is None:
            leaf.add_argument("--seed", type=int, default=0)
            leaf.add_argument("--cases", type=int, default=200)
        else:
            leaf.add_argument("file")
        if handler is _git_polystable:
            leaf.add_argument("--support", required=True, help="comma-separated labels (empty for the origin)")
        leaf.add_argument("--json", action="store_true", help="machine-readable report")
        leaf.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.handler is None:
            from .selftest import run_selftest

            report, ok = run_selftest(seed=args.seed, cases=args.cases)
            code = EXIT_OK if ok else EXIT_INPUT
        else:
            data = read_json(args.file)
            report = Report(subject=data.get("name", str(args.file)))
            code = args.handler(report, data, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationCapError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PreconditionError as exc:
        print(f"precondition violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(report.to_json() if args.json else report.render())
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
