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
round-trips losslessly.  Exit codes: 0 ok, 1 input or schema error (or a
stdout closed before the report was written, as by ``| head``), 2 blown
computation cap (Moebius generators of an infinite group, a support
enumeration too large) or a usage error (argparse's convention), 3 violated
mathematical precondition, 4 internal error (a computed result failed its
own run-time check; a bug, not a property of the input).

The command line is read from ``COMMANDS`` when it has one of the forms
above, written out in full: the words of a command, then its FILE (not
starting with ``-``) and its options in any order.  Any other command line,
``--help`` and every usage error among them, goes to the argparse parser
that ``build_parser`` builds from the same table, so help texts and errors
are argparse's; a command line that the table reads parses to the same
arguments under argparse.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from itertools import chain, islice, repeat, starmap
from json.encoder import encode_basestring as _encode_str
from types import SimpleNamespace

from .errors import (
    ComputationCapError,
    InputError,
    InternalError,
    PreconditionError,
)
from .rationals import rat_str, ratio_str
from .schemas import _check_document, read_json

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


# A verdict's text in a JSON report (an item of its "verdicts" list) and in a
# text report, from its four fields written for that report, given in the
# sorted order of their keys: certificate, claim, route, value.
_VERDICT_JSON = (
    '{{\n      "certificate": {0},\n      "claim": {1},\n      "route": {2},\n      "value": {3}\n    }}'
).format
_VERDICT_TEXT = "\n  {1}: {3}{2}{0}".format
# ``run`` writes a report in pieces of this many verdicts
_PIECE_VERDICTS = 1024


def _json_text(node, newline: str = "\n      ") -> str:
    """The indent-2 JSON text of ``node`` on a line that starts with
    ``newline``; by default, a verdict field's line."""
    out = []
    _write_json(node, newline, out)
    return "".join(out)


def _compact_json(node) -> str:
    return json.dumps(node, sort_keys=True, ensure_ascii=False)


def _certificate_line(certificate) -> str:
    """A verdict's certificate in a text report: a line, or none for None."""
    return "" if certificate is None else "\n    certificate: " + _compact_json(certificate)


class Verdict(_Record):
    def __init__(self, claim: str, value, route: str | None = None, certificate=None):
        self.claim = claim
        self.value = value
        self.route = route
        self.certificate = certificate

    def _dicts(self):
        return (dict(vars(self)),)

    def _fields(self, as_json: bool):
        if as_json:
            fields = (self.certificate, self.claim, self.route, self.value)
            return (tuple(map(_json_text, fields)),)
        route = "" if self.route is None else f"  [{self.route}]"
        value = self.value if isinstance(self.value, str) else _compact_json(self.value)
        return ((_certificate_line(self.certificate), self.claim, route, value),)


class StabilityVerdicts(_Record):
    """Stability verdicts held as decided rows ``(support, polystable,
    certificate)``, as ``quotients.polystable_locus`` returns them, and
    written straight from those rows.  A row's claim is ``claim``, or else
    names its support.  Writing them builds no ``Verdict`` or certificate
    dict per row: each distinct certificate's text is built once, and rows
    with equal certificates share it."""

    def __init__(self, rows, claim: str | None = None):
        self.rows = rows
        self.claim = claim

    def _claims(self):
        if self.claim is not None:
            return repeat(self.claim, len(self.rows))
        return (f"support {{{', '.join(support) or 'empty'}}}" for support, _, _ in self.rows)

    def _dicts(self):
        return [
            {"claim": claim, "value": polystable, "route": None, "certificate": _cert_dict(polystable, cert)}
            for claim, (_, polystable, cert) in zip(self._claims(), self.rows)
        ]

    def _fields(self, as_json: bool):
        claims = self._claims()
        if as_json:
            claims, route, write_certificate = map(_encode_str, claims), "null", _json_text
        else:
            route, write_certificate = "", _certificate_line
        texts = {}
        for claim, (_, polystable, cert) in zip(claims, self.rows):
            text = texts.get(cert)
            if text is None:
                text = texts[cert] = write_certificate(_cert_dict(polystable, cert))
            yield text, claim, route, "true" if polystable else "false"


class Report(_Record):
    """What a command reports: a subject, verdicts and warnings.  An item of
    ``verdicts`` is a ``Verdict`` or a block of ``StabilityVerdicts``; two
    reports are equal when their ``to_dict()`` are."""

    def __init__(
        self,
        subject: str,
        verdicts: list | None = None,
        warnings: list[str] | None = None,
        report_version: int = REPORT_VERSION,
    ):
        self.subject = subject
        self.verdicts = [] if verdicts is None else verdicts
        self.warnings = [] if warnings is None else warnings
        self.report_version = report_version

    def __eq__(self, other):
        return self.to_dict() == other.to_dict() if type(other) is type(self) else NotImplemented

    def add(self, claim, value, route=None, certificate=None):
        self.verdicts.append(Verdict(claim, value, route, certificate))

    def warn(self, message: str):
        self.warnings.append(message)

    def to_dict(self) -> dict:
        return {
            "report_version": self.report_version,
            "subject": self.subject,
            "verdicts": [d for v in self.verdicts for d in v._dicts()],
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        """The report as JSON: two-space indent, sorted keys, non-ASCII written
        unescaped.  The bytes are those of ``json.dumps(self.to_dict(),
        indent=2, sort_keys=True, ensure_ascii=False)``, built without that
        pure-Python encoder and without ``to_dict``: each verdict is written
        through one template over its four keys, and a block of stability
        verdicts straight from its rows."""
        return "".join(self.pieces(as_json=True))

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
        return "".join(self.pieces(as_json=False))

    def pieces(self, as_json: bool):
        """The text of ``to_json()`` or of ``render()`` in pieces of at most
        ``_PIECE_VERDICTS`` verdicts, for writing a large report out."""
        template = _VERDICT_JSON if as_json else _VERDICT_TEXT
        verdicts = chain.from_iterable(starmap(template, v._fields(as_json)) for v in self.verdicts)
        if not as_json:
            yield f"subject: {self.subject}"
            while piece := "".join(islice(verdicts, _PIECE_VERDICTS)):
                yield piece
            yield "".join(f"\n  warning: {w}" for w in self.warnings)
            return
        yield (
            '{\n  "report_version": ' + _json_text(self.report_version, "\n  ")
            + ',\n  "subject": ' + _json_text(self.subject, "\n  ")
            + ',\n  "verdicts": '
        )
        separator = "[\n    "
        while batch := list(islice(verdicts, _PIECE_VERDICTS)):
            yield separator + ",\n    ".join(batch)
            separator = ",\n    "
        close = "[]" if separator == "[\n    " else "\n  ]"
        yield close + ',\n  "warnings": ' + _json_text(list(self.warnings), "\n  ") + "\n}"


#: the JSON text of a str, int, bool or None, by its exact type
_LEAF_ENCODERS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_json(node, newline: str, out: list) -> None:
    """Append the indent-2 JSON text of ``node`` to ``out``; ``newline`` is a
    line break and the indentation of the line that holds ``node``.  Dict keys
    must be strings; a leaf that is not a str, bool, None or int goes to
    ``json.dumps``."""
    encode = _LEAF_ENCODERS.get(type(node))
    if encode is not None:
        out.append(encode(node))
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(node):
            value = node[key]
            encode = _LEAF_ENCODERS.get(type(value))
            if encode is None:
                out.append(sep + _encode_str(key) + ": ")
                _write_json(value, inner, out)
            else:
                out.append(sep + _encode_str(key) + ": " + encode(value))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = newline + "  "
        # a list of leaves of one type is joined in one go
        kind = type(node[0])
        if kind in _LEAF_ENCODERS and set(map(type, node)) == {kind}:
            out.append("[" + inner + ("," + inner).join(map(_LEAF_ENCODERS[kind], node)) + newline + "]")
        else:
            sep = "[" + inner
            for item in node:
                out.append(sep)
                _write_json(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(json.dumps(node, ensure_ascii=False))


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
        certificate=verdict.details,
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
    report.verdicts.append(StabilityVerdicts([(support, verdict, cert)], "polystable"))
    return EXIT_OK


def _git_locus(report: Report, data: dict, args) -> int:
    from .quotients import polystable_locus
    from .schemas import load_weights

    weights, claimed = load_weights(data)
    rows = polystable_locus(weights)
    report.verdicts.append(StabilityVerdicts(rows))
    report.add("polystable_supports", [list(support) for support, verdict, _ in rows if verdict])
    if claimed is not None:
        stated = [set(piece) for piece in claimed]
        mismatches = [
            support
            for support, verdict, _ in rows
            if (not support or any(piece.issubset(support) for piece in stated)) != verdict
        ]
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
    from .quotients import chow_quotient_fan
    from .schemas import load_chow

    out, flat = chow_quotient_fan(*load_chow(data))
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
    kind, problems, _ = _check_document(data)
    report.add("format", kind if not problems else "unknown")
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
def build_parser():
    import argparse

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


def _read_argv(argv: list[str]):
    """The arguments of ``argv`` when it has one of the forms the module
    docstring lists, else None.  A FILE or value that starts with ``-``, an
    option written with ``=`` or abbreviated, ``--help``, and a missing or
    second FILE are all left to argparse."""
    for words, _, handler in COMMANDS:
        if tuple(argv[: len(words)]) == words:
            break
    else:
        return None
    # each argument with its default; None marks a required one
    fields = {"seed": 0, "cases": 200} if handler is None else {"file": None}
    if handler is _git_polystable:
        fields["support"] = None
    as_json = False
    rest = iter(argv[len(words) :])
    for token in rest:
        name = token[2:]
        if token == "--json":
            as_json = True
        elif token.startswith("--") and name in fields and name != "file":
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                fields[name] = value if name == "support" else int(value)
            except ValueError:
                return None
        elif token.startswith("-") or fields.get("file", "") is not None:
            return None
        else:
            fields["file"] = token
    if None in fields.values():
        return None
    return SimpleNamespace(handler=handler, json=as_json, **fields)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        if args.handler is None:
            from .selftest import run_selftest

            report = Report(subject=f"selftest(seed={args.seed}, cases={args.cases})")
            code = EXIT_OK
            for name, failures in run_selftest(seed=args.seed, cases=args.cases):
                report.add(name, "FAIL" if failures else "pass", certificate=failures[:3] or None)
                if failures:
                    code = EXIT_INPUT
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
    # everything is decided before the first byte is written
    sys.stdout.writelines(report.pieces(args.json))
    sys.stdout.write("\n")
    return code


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: as in the note on SIGPIPE in the
        # ``signal`` docs, point it at devnull so that the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT
    raise SystemExit(code)


if __name__ == "__main__":
    main()
