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
computation cap (Moebius or lattice generators of an infinite group, a
lattice rank above 5, a support enumeration too large) or a usage error
(argparse's convention), 3 violated mathematical precondition, 4 internal
error (a computed result failed its own run-time check, or a ``selftest``
suite found a failing case; a bug, not a property of the input).

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
from itertools import chain, islice
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


# A verdict's text in a JSON report (an item of its "verdicts" list, with the
# separator written before every item) and in a text report, split at its
# value: the text before the value and the text after it, each a template
# over the verdict's other fields written for that report, given in the
# sorted order of their keys: certificate, claim, route.
_VERDICT_JSON = (',\n    {{\n      "certificate": {0},\n      "claim": {1},\n      "route": {2},\n      "value": ', "\n    }}")
_VERDICT_TEXT = ("\n  {1}: ", "{2}{0}")
#: per report kind, the template of a whole verdict, with its value as a
#: fourth field, and the two templates it splits into
_TEMPLATES = {
    as_json: ((before + "{3}" + after).format, before.format, after.format)
    for as_json, (before, after) in ((True, _VERDICT_JSON), (False, _VERDICT_TEXT))
}
#: stand-in for a verdict's claim, which a block of stability verdicts fills
#: in per row after filling the rest of the template once per certificate
_CLAIM_SLOT = "\0claim\0"
# ``run`` writes a report in pieces of this many verdicts, or of this many
# items of a value written item by item
_PIECE_VERDICTS = 1024

# A stability certificate's text on a verdict's certificate line, in a JSON
# report and in a text report, from the text of its one list's items, keyed
# by the verdict: a positive combination for a polystable support, else a
# destabilizer.  Coefficients are ``ratio_str``s, which need no escaping.
_CERT_JSON = {
    True: '{{\n        "coefficients": {0},\n        "type": "positive-combination"\n      }}'.format,
    False: '{{\n        "one_parameter_subgroup": {0},\n        "type": "destabilizer"\n      }}'.format,
}
_CERT_TEXT = {
    True: '\n    certificate: {{"coefficients": [{0}], "type": "positive-combination"}}'.format,
    False: '\n    certificate: {{"one_parameter_subgroup": [{0}], "type": "destabilizer"}}'.format,
}


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


def _json_list(texts: list[str], newline: str) -> str:
    """The indent-2 JSON text of a list whose items are written as ``texts``,
    on a line that starts with ``newline``."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _cert_text(polystable: bool, cert, as_json: bool) -> str:
    """``_json_text`` or ``_certificate_line`` of ``_cert_dict(polystable,
    cert)``, written through the certificate templates."""
    if polystable:
        den = cert.denominator
        if den == 1:
            items = [f'"{n}"' for n in cert.numerators]
        else:
            items = [f'"{ratio_str(n, den)}"' for n in cert.numerators]
    else:
        items = list(map(int.__repr__, cert.vector))
    if as_json:
        return _CERT_JSON[polystable](_json_list(items, "\n        "))
    return _CERT_TEXT[polystable](", ".join(items))


class Verdict:
    def __init__(self, claim: str, value, route: str | None = None, certificate=None):
        self.claim = claim
        self.value = value
        self.route = route
        self.certificate = certificate

    def _texts(self, as_json: bool):
        # the verdict's certificate, claim, route and value written for the report
        if as_json:
            fields = map(_json_text, (self.certificate, self.claim, self.route, self.value))
        else:
            route = "" if self.route is None else f"  [{self.route}]"
            value = self.value if isinstance(self.value, str) else _compact_json(self.value)
            fields = _certificate_line(self.certificate), self.claim, route, value
        return (_TEMPLATES[as_json][0](*fields),)


def _support_claim(support) -> str:
    return f"support {{{', '.join(support) or 'empty'}}}"


class StabilityVerdicts:
    """The verdicts of ``git locus``, held as the decided rows ``(support,
    polystable, certificate)`` that ``quotients.polystable_locus`` returns
    and written straight from them: one verdict per row, whose claim names
    its support, then ``polystable_supports``, the supports of the rows that
    are polystable, in row order, as lists of labels.  Writing builds no
    ``Verdict`` or certificate dict per row: once per certificate object,
    the verdict template is filled in with the certificate's text, built
    through the certificate templates, and with its route and value, and
    each row puts its claim into that text.  The supports are written one
    at a time, so that a report in pieces holds no list or text of the
    whole value.  The
    rows start with the empty support, which is polystable, so that value
    is never empty."""

    def __init__(self, rows):
        self.rows = rows

    def _texts(self, as_json: bool):
        template, before, after = _TEMPLATES[as_json]
        route = "null" if as_json else ""
        # per certificate, the verdict template with everything but the claim
        # filled in, split at the claim; ``polystable_locus`` gives equal
        # certificates as one object
        around = {}
        for support, polystable, cert in self.rows:
            claim = _support_claim(support)
            parts = around.get(id(cert))
            if parts is None:
                value = "true" if polystable else "false"
                parts = around[id(cert)] = template(
                    _cert_text(polystable, cert, as_json), _CLAIM_SLOT, route, value
                ).split(_CLAIM_SLOT)
            yield parts[0] + (_encode_str(claim) if as_json else claim) + parts[1]
        # the polystable supports' list written item by item, as
        # ``_json_list`` or ``_compact_json`` would write it whole
        if as_json:
            fields = ("null", '"polystable_supports"', "null")
            first, separator, close = "[\n        ", ",\n        ", "\n      ]"
        else:
            fields = ("", "polystable_supports", "")
            first, separator, close = "[", ", ", "]"
        start = before(*fields) + first
        for support, polystable, _ in self.rows:
            if polystable:
                labels = list(map(_encode_str, support))
                yield start + (_json_list(labels, "\n        ") if as_json else "[" + ", ".join(labels) + "]")
                start = separator
        yield close + after(*fields)


class Report:
    """What a command reports: a subject, verdicts and warnings.  An item of
    ``verdicts`` is a ``Verdict`` or, for ``git locus``, a block of
    ``StabilityVerdicts``; two reports are equal when they write the same
    JSON."""

    report_version = REPORT_VERSION

    def __init__(self, subject: str):
        self.subject = subject
        self.verdicts = []
        self.warnings = []

    def __eq__(self, other):
        return self.to_json() == other.to_json() if type(other) is type(self) else NotImplemented

    def add(self, claim, value, route=None, certificate=None):
        self.verdicts.append(Verdict(claim, value, route, certificate))

    def warn(self, message: str):
        self.warnings.append(message)

    def to_json(self) -> str:
        """The report as JSON: the bytes that ``json.dumps`` writes with
        ``indent=2, sort_keys=True, ensure_ascii=False`` for the object of
        ``report_version``, ``subject``, ``verdicts`` (each an object of its
        four fields) and ``warnings``, built without that pure-Python
        encoder: each verdict is written through one template over its four
        keys, and a block of stability verdicts and the polystable supports
        straight from their rows."""
        return "".join(self.pieces(as_json=True))

    @classmethod
    def from_json(cls, text: str) -> "Report":
        """The report that writes ``text``; ``to_json`` writes no version
        but ``REPORT_VERSION``, so another is an input error."""
        data = json.loads(text)
        if data["report_version"] != REPORT_VERSION:
            raise InputError(f"report version {data['report_version']!r} is not {REPORT_VERSION}")
        report = cls(data["subject"])
        report.verdicts = [Verdict(**v) for v in data["verdicts"]]
        report.warnings = list(data["warnings"])
        return report

    def render(self) -> str:
        return "".join(self.pieces(as_json=False))

    def pieces(self, as_json: bool):
        """The text of ``to_json()`` or of ``render()`` in pieces of at most
        ``_PIECE_VERDICTS`` verdicts, or items of a value written item by
        item, for writing a large report out."""
        texts = chain.from_iterable(v._texts(as_json) for v in self.verdicts)
        if not as_json:
            yield f"subject: {self.subject}"
            while piece := "".join(islice(texts, _PIECE_VERDICTS)):
                yield piece
            yield "".join(f"\n  warning: {w}" for w in self.warnings)
            return
        # every verdict starts with its separator; the first one's opens the list
        first = "".join(islice(texts, _PIECE_VERDICTS))
        yield (
            '{\n  "report_version": ' + _json_text(self.report_version, "\n  ")
            + ',\n  "subject": ' + _json_text(self.subject, "\n  ")
            + ',\n  "verdicts": ' + ("[" + first[1:] if first else "[]")
        )
        while piece := "".join(islice(texts, _PIECE_VERDICTS)):
            yield piece
        yield ("\n  ]" if first else "") + ',\n  "warnings": ' + _json_text(list(self.warnings), "\n  ") + "\n}"


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
            out.append(_json_list(list(map(_LEAF_ENCODERS[kind], node)), newline))
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
    report.add("polystable", verdict, certificate=_cert_dict(verdict, cert))
    return EXIT_OK


def _git_locus(report: Report, data: dict, args) -> int:
    from .quotients import polystable_locus
    from .schemas import load_weights

    weights, claimed = load_weights(data)
    rows = polystable_locus(weights)
    report.verdicts.append(StabilityVerdicts(rows))
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

# (words, help, handler, options) per leaf command, in ``--help`` order; options
# maps each option but ``--json`` to (type, default, help), a default of None
# marking it required.  ``selftest`` reads no FILE and has no handler.
COMMANDS = (
    (("tvar", "check"), "full verdict pipeline for a variety file", _tvar_check, {}),
    (("lct",), "equivariant threshold of a marked pair file", _lct, {}),
    (("valuable",), "invariant log canonicity test for a pair file", _valuable, {}),
    (("git", "polystable"), "verdict for one support", _git_polystable,
     {"support": (str, None, "comma-separated labels (empty for the origin)")}),
    (("git", "locus"), "verdicts for every support subset", _git_locus, {}),
    (("chow",), "refinement fan of the projected maximal cones", _chow, {}),
    (("lattice", "symmetric"), "fixed sublattice and symmetry test", _lattice_symmetric, {}),
    (("validate",), "schema diagnostics, no computation", _validate, {}),
    (("selftest",), "seeded randomized property suites", None, {"seed": (int, 0, None), "cases": (int, 200, None)}),
)


@functools.cache
def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="symfano",
        description="Exact existence certificates for complexity-one torus varieties.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_text, handler, options in COMMANDS:
        if words[:-1] not in subparsers:
            group = subparsers[()].add_parser(words[0], help=GROUPS[words[0]])
            subparsers[words[:-1]] = group.add_subparsers(dest=f"{words[0]}_command", required=True)
        leaf = subparsers[words[:-1]].add_parser(words[-1], help=help_text)
        if handler is not None:
            leaf.add_argument("file")
        for name, (kind, default, option_help) in options.items():
            leaf.add_argument(f"--{name}", type=kind, default=default, required=default is None, help=option_help)
        leaf.add_argument("--json", action="store_true", help="machine-readable report")
        leaf.set_defaults(handler=handler)
    return parser


def _read_argv(argv: list[str]):
    """The arguments of ``argv`` when it has one of the forms the module
    docstring lists, else None, with each option's default and conversion
    taken from the command's ``COMMANDS`` entry.  A FILE or value that starts
    with ``-``, an option written with ``=`` or abbreviated, ``--help``, and a
    missing or second FILE are all left to argparse."""
    for words, _, handler, options in COMMANDS:
        if tuple(argv[: len(words)]) == words:
            break
    else:
        return None
    # each argument with its default; None marks a required one
    fields = {name: default for name, (_, default, _) in options.items()}
    if handler is not None:
        fields["file"] = None
    as_json = False
    rest = iter(argv[len(words) :])
    for token in rest:
        name = token[2:]
        if token == "--json":
            as_json = True
        elif token.startswith("--") and name in options:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                fields[name] = options[name][0](value)
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
                    code = EXIT_INTERNAL
        else:
            data = read_json(args.file)
            name = data.get("name")
            report = Report(subject=name if isinstance(name, str) else str(args.file))
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
