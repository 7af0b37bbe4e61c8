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
enumeration too large) or mixed extensions, 3 violated mathematical
precondition, 4 internal error (a computed result failed its own run-time
check; a bug, not a property of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import selftest as selftest_mod
from .curvepair import is_neg_infinity, is_valuable, lct_g
from .errors import (
    ComputationCapError,
    InputError,
    InternalError,
    MixedExtension,
    PreconditionError,
    SymfanoError,
)
from .exact import PositiveCombination
from .groups import closure, fixed_sublattice, is_symmetric
from .quotients import (
    Destabilizer,
    chow_quotient_fan,
    is_polystable,
    lower_dimensional_images,
    polystable_locus,
)
from .rationals import rat_str
from .schemas import (
    detect_kind,
    load_chow,
    load_lattice,
    load_pair,
    load_variety,
    load_weights,
    read_json,
    validate_data,
)
from .tvariety import analyze

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


@dataclass
class Verdict:
    claim: str
    value: object
    route: str | None = None
    certificate: object = None

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "value": self.value,
            "route": self.route,
            "certificate": self.certificate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Verdict":
        return cls(data["claim"], data["value"], data["route"], data["certificate"])


@dataclass
class Report:
    subject: str
    verdicts: list[Verdict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    report_version: int = REPORT_VERSION

    def add(self, claim, value, route=None, certificate=None):
        self.verdicts.append(Verdict(claim, value, route, certificate))

    def warn(self, message: str):
        self.warnings.append(message)

    def to_dict(self) -> dict:
        return {
            "report_version": self.report_version,
            "subject": self.subject,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(
            subject=data["subject"],
            verdicts=[Verdict.from_dict(v) for v in data["verdicts"]],
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


def _emit(report: Report, as_json: bool):
    print(report.to_json() if as_json else report.render())


def _cert_dict(cert) -> dict:
    if isinstance(cert, PositiveCombination):
        return {
            "type": "positive-combination",
            "coefficients": [rat_str(c) for c in cert.coefficients],
        }
    if isinstance(cert, Destabilizer):
        return {"type": "destabilizer", "one_parameter_subgroup": list(cert.vector)}
    raise InputError(f"unknown certificate {cert!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_tvar_check(args) -> tuple[Report, int]:
    data = read_json(args.file)
    variety = load_variety(data)
    analysis = analyze(variety)
    report = Report(subject=variety.name)
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
        _emit(report, args.json)
        return report, EXIT_PRECONDITION
    report.add(
        "ke_certified",
        verdict.certified,
        route=verdict.route if verdict.certified else "inconclusive",
        certificate={k: verdict.details[k] for k in sorted(verdict.details)},
    )
    for w in verdict.warnings:
        report.warn(w)
    _emit(report, args.json)
    return report, EXIT_OK


def _cmd_lct(args) -> tuple[Report, int]:
    data = read_json(args.file)
    pair, generators = load_pair(data)
    group = closure(generators)
    report = Report(subject=data.get("name", str(args.file)))
    report.add("group_order", group.order)
    res = lct_g(pair, group)
    report.add(
        "lct",
        "infinite" if res.is_infinite else rat_str(res.value),
        certificate=None if res.witness is None else res.witness.describe(),
    )
    _emit(report, args.json)
    return report, EXIT_OK


def _cmd_valuable(args) -> tuple[Report, int]:
    data = read_json(args.file)
    pair, generators = load_pair(data)
    group = closure(generators)
    report = Report(subject=data.get("name", str(args.file)))
    report.add("group_order", group.order)
    ok, witness = is_valuable(pair, group)
    report.add(
        "valuable",
        ok,
        certificate=None if witness is None else f"violating class: {witness.describe()}",
    )
    _emit(report, args.json)
    return report, EXIT_OK


def _parse_support(text: str) -> tuple[str, ...]:
    return tuple(s for s in (part.strip() for part in text.split(",")) if s)


def _cmd_git_polystable(args) -> tuple[Report, int]:
    data = read_json(args.file)
    weights, _ = load_weights(data)
    support = _parse_support(args.support)
    verdict, cert = is_polystable(weights, support)
    report = Report(subject=data.get("name", str(args.file)))
    report.add("support", list(support))
    report.add("polystable", verdict, certificate=_cert_dict(cert))
    _emit(report, args.json)
    return report, EXIT_OK


def _claimed_polystable(support, claimed) -> bool:
    if not support:
        return True
    return any(set(piece) <= set(support) for piece in claimed)


def _cmd_git_locus(args) -> tuple[Report, int]:
    data = read_json(args.file)
    weights, claimed = load_weights(data)
    report = Report(subject=data.get("name", str(args.file)))
    mismatches = []
    polystable_supports = []
    for support, verdict, cert in polystable_locus(weights):
        report.add(
            f"support {{{', '.join(support) or 'empty'}}}",
            verdict,
            certificate=_cert_dict(cert),
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
    _emit(report, args.json)
    return report, EXIT_OK


def _cmd_chow(args) -> tuple[Report, int]:
    data = read_json(args.file)
    fan, projection = load_chow(data)
    out = chow_quotient_fan(fan, projection)
    report = Report(subject=data.get("name", str(args.file)))
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
    _emit(report, args.json)
    return report, EXIT_OK


def _cmd_lattice_symmetric(args) -> tuple[Report, int]:
    data = read_json(args.file)
    group = load_lattice(data)
    report = Report(subject=data.get("name", str(args.file)))
    basis = fixed_sublattice(group)
    report.add("fixed_sublattice_rank", len(basis))
    report.add("fixed_sublattice_basis", [list(v) for v in basis])
    report.add("symmetric", is_symmetric(group))
    _emit(report, args.json)
    return report, EXIT_OK


def _cmd_validate(args) -> tuple[Report, int]:
    data = read_json(args.file)
    problems = validate_data(data)
    report = Report(subject=data.get("name", str(args.file)))
    report.add("format", detect_kind(data) if not problems else "unknown")
    if problems:
        for p in problems:
            report.add("problem", p)
        _emit(report, args.json)
        return report, EXIT_INPUT
    report.add("schema", "OK")
    _emit(report, args.json)
    return report, EXIT_OK


def _cmd_selftest(args) -> tuple[Report, int]:
    report, ok = selftest_mod.run_selftest(seed=args.seed, cases=args.cases)
    _emit(report, args.json)
    return report, EXIT_OK if ok else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfano",
        description="Exact existence certificates for complexity-one torus varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")

    tvar = sub.add_parser("tvar", help="complexity-one variety commands")
    tvar_sub = tvar.add_subparsers(dest="tvar_command", required=True)
    check = tvar_sub.add_parser("check", help="full verdict pipeline for a variety file")
    check.add_argument("file")
    add_common(check)
    check.set_defaults(func=_cmd_tvar_check)

    lct = sub.add_parser("lct", help="equivariant threshold of a marked pair file")
    lct.add_argument("file")
    add_common(lct)
    lct.set_defaults(func=_cmd_lct)

    val = sub.add_parser("valuable", help="invariant log canonicity test for a pair file")
    val.add_argument("file")
    add_common(val)
    val.set_defaults(func=_cmd_valuable)

    git = sub.add_parser("git", help="torus orbit-closedness commands")
    git_sub = git.add_subparsers(dest="git_command", required=True)
    poly = git_sub.add_parser("polystable", help="verdict for one support")
    poly.add_argument("file")
    poly.add_argument("--support", required=True, help="comma-separated labels (empty for the origin)")
    add_common(poly)
    poly.set_defaults(func=_cmd_git_polystable)
    locus = git_sub.add_parser("locus", help="verdicts for every support subset")
    locus.add_argument("file")
    add_common(locus)
    locus.set_defaults(func=_cmd_git_locus)

    chow = sub.add_parser("chow", help="refinement fan of the projected maximal cones")
    chow.add_argument("file")
    add_common(chow)
    chow.set_defaults(func=_cmd_chow)

    lattice = sub.add_parser("lattice", help="character lattice commands")
    lattice_sub = lattice.add_subparsers(dest="lattice_command", required=True)
    symm = lattice_sub.add_parser("symmetric", help="fixed sublattice and symmetry test")
    symm.add_argument("file")
    add_common(symm)
    symm.set_defaults(func=_cmd_lattice_symmetric)

    validate = sub.add_parser("validate", help="schema diagnostics, no computation")
    validate.add_argument("file")
    add_common(validate)
    validate.set_defaults(func=_cmd_validate)

    selftest = sub.add_parser("selftest", help="seeded randomized property suites")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--cases", type=int, default=200)
    add_common(selftest)
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _, code = args.func(args)
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ComputationCapError, MixedExtension) as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PreconditionError as exc:
        print(f"precondition violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SymfanoError as exc:  # fallback; should not happen
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
