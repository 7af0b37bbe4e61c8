"""JSON file formats: structural validation and loading.

One format per subject.  One walk checks a document and returns what it
parsed: ``_check_document`` reports every problem with its JSON path, and the
``load_*`` functions build the domain objects from the parsed points,
coefficients and Moebius matrices without parsing again.  The check keeps
every rational as the int pair of ``rationals.parse_ratio`` and builds no
``Fraction``: a point becomes its ``ProjPoint.coords``, a Moebius matrix its
entries' pairs, and only ``load_pair`` builds one ``Fraction`` per finite
coefficient, so ``validate`` loads no ``fractions``.  Checks beyond
schema shape (Moebius determinant, unimodularity, invariance) live in the
public constructors of the domain types.  Each loader imports its own domain
types, so validation loads no subject module.

Formats, in the order of ``_KINDS``, the one table of each format's key and
check: a document is of the first format whose key it has.  Rationals are
``"p/q"`` strings or bare integers; points are ``[x, y]`` homogeneous pairs.
A document of any format may carry a string ``name``, its report's subject,
and a variety must.  A report prints a name, a label or a divisor name
(vertical or horizontal) as one line of UTF-8, so one that is not Unicode
text (a lone surrogate, which JSON's ``\\ud800`` escape gives) or that holds
a ``str.splitlines`` boundary, which would start a line of its own in a text
report, is a problem at its path, and no report has to write one.

* variety     -- name, dim, fano, log_terminal, fibers: [{point, divisors:
                 [{name, order}]}], horizontal: [names], symmetry:
                 {lattice_generators, and either moebius_generators or
                 marked_permutations + induced_cyclic, solved into Moebius
                 maps on three or more fibers and a lower bound on fewer}
* pair        -- points: [{pt, coeff ("-inf" allowed)}], moebius_generators
* weights     -- labels, weights (one row per torus factor), optional
                 claimed_polystable_supports_any_of
* chow        -- fan: {rank, cones: [{generators}]}, projection
* lattice     -- rank, generators
"""

from __future__ import annotations

import json

from .errors import InputError
from .rationals import parse_ratio, rational_pair


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an int over the digit limit, too deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_NOT_TEXT = "must be Unicode text, without a lone surrogate"
_NOT_LINE = "must be one line, without a line break"


def _line_problem(x: str) -> str | None:
    """Why a report cannot print the str x as one line of UTF-8, or None
    when it can: a lone surrogate, which JSON's ``\\ud800`` escape reads
    as, or a ``str.splitlines`` boundary."""
    try:
        x.encode()
    except UnicodeEncodeError:
        return _NOT_TEXT
    return None if x.splitlines() == [x] or not x else _NOT_LINE


def _is_line(x) -> bool:
    """Whether x is a str that a report can print as one line of UTF-8."""
    return isinstance(x, str) and _line_problem(x) is None


def _ratio(x):
    """``parse_ratio`` of x, or None when x is not a rational."""
    try:
        return parse_ratio(x)
    except InputError:
        return None


def _check_point(value, path, out, seen):
    """One point as ``ProjPoint.coords``, each coordinate parsed once, or None
    after recording why it is not a point.  ``seen`` maps each pair to the
    path of its first occurrence, so a repeat is a repeated pair."""
    try:
        if not (isinstance(value, list) and len(value) == 2):
            raise InputError("not a pair")
        (xn, xd), (yn, yd) = parse_ratio(value[0]), parse_ratio(value[1])
    except InputError:
        out.append(f"{path}: must be a pair of rationals")
        return None
    if not xn and not yn:
        out.append(f"{path}: (0, 0) is not a projective point")
        return None
    pair = rational_pair(xn * yd, yn * xd)
    first = seen.setdefault(pair, path)
    if first != path:
        out.append(f"{path}: the same point as {first}")
    return pair


def _check_matrix(value, path, out, square=None, integer=True):
    """Its rows, each rational parsed once into its ``parse_ratio`` pair unless
    ``integer`` (None for an entry that is not one); None when it is not an
    array of equal rows."""
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        out.append(f"{path}: must be a nonempty array of rows")
        return None
    width = len(value[0])
    rows = []
    for i, row in enumerate(value):
        if len(row) != width:
            out.append(f"{path}[{i}]: ragged row")
            return None
        parsed = row if integer else [_ratio(x) for x in row]
        for j, (x, q) in enumerate(zip(row, parsed)):
            if integer and not _is_int(x):
                out.append(f"{path}[{i}][{j}]: must be an integer")
            elif q is None:
                out.append(f"{path}[{i}][{j}]: must be a rational")
        rows.append(parsed)
    if square is not None and (len(value) != square or width != square):
        out.append(f"{path}: must be {square}x{square}")
    return rows


def _validate_variety(data: dict, out: list):
    """The fibers' points and the Moebius generators (None for a declared action)."""
    if "name" not in data:
        out.append("name: missing")
    for key, typ in (("dim", int), ("fano", bool), ("log_terminal", bool)):
        if key not in data:
            out.append(f"{key}: missing")
        elif not isinstance(data[key], typ) or (typ is int and isinstance(data[key], bool)):
            out.append(f"{key}: must be {typ.__name__}")
    rank = None
    if _is_int(data.get("dim")):
        if data["dim"] < 2:
            out.append("dim: must be >= 2")
        else:
            rank = data["dim"] - 1
    fibers = data.get("fibers")
    names = []
    points, seen = [], {}
    if not isinstance(fibers, list):
        out.append("fibers: missing or not an array")
    else:
        for i, fiber in enumerate(fibers):
            if not isinstance(fiber, dict):
                out.append(f"fibers[{i}]: must be an object")
                continue
            points.append(_check_point(fiber.get("point"), f"fibers[{i}].point", out, seen))
            divisors = fiber.get("divisors")
            if not isinstance(divisors, list):
                out.append(f"fibers[{i}].divisors: missing or not an array")
                continue
            for j, div in enumerate(divisors):
                if not isinstance(div, dict):
                    out.append(f"fibers[{i}].divisors[{j}]: must be an object")
                    continue
                name = div.get("name")
                if not isinstance(name, str):
                    out.append(f"fibers[{i}].divisors[{j}].name: missing or not a string")
                elif problem := _line_problem(name):
                    out.append(f"fibers[{i}].divisors[{j}].name: {problem}")
                else:
                    names.append(name)
                order = div.get("order")
                if not _is_int(order) or order < 1:
                    out.append(f"fibers[{i}].divisors[{j}].order: order must be >= 1")
    horizontal = data.get("horizontal", [])
    if not isinstance(horizontal, list) or not all(isinstance(h, str) for h in horizontal):
        out.append("horizontal: must be an array of names")
    else:
        for k, name in enumerate(horizontal):
            if problem := _line_problem(name):
                out.append(f"horizontal[{k}]: {problem}")
            else:
                names.append(name)
    dupes = sorted({n for n in names if names.count(n) > 1})
    for n in dupes:
        out.append(f"duplicate divisor name: {n}")
    sym = data.get("symmetry")
    if not isinstance(sym, dict):
        out.append("symmetry: missing or not an object")
        return points, None
    gens = sym.get("lattice_generators")
    if not isinstance(gens, list) or not gens:
        out.append("symmetry.lattice_generators: must be a nonempty array")
    else:
        for i, g in enumerate(gens):
            _check_matrix(g, f"symmetry.lattice_generators[{i}]", out, square=rank)
    explicit = "moebius_generators" in sym
    declared = "marked_permutations" in sym or "induced_cyclic" in sym
    if explicit == declared:
        out.append("symmetry: give either moebius_generators or marked_permutations + induced_cyclic")
    moebius = None
    if explicit:
        mg = sym["moebius_generators"]
        if not isinstance(mg, list) or (isinstance(gens, list) and len(mg) != len(gens)):
            out.append("symmetry.moebius_generators: one 2x2 matrix per lattice generator")
        else:
            moebius = [
                _check_matrix(g, f"symmetry.moebius_generators[{i}]", out, square=2, integer=False)
                for i, g in enumerate(mg)
            ]
    if declared:
        perms = sym.get("marked_permutations")
        nf = len(fibers) if isinstance(fibers, list) else 0
        if not isinstance(perms, list) or (isinstance(gens, list) and len(perms) != len(gens)):
            out.append("symmetry.marked_permutations: one permutation per lattice generator")
        else:
            for i, p in enumerate(perms):
                if not (isinstance(p, list) and all(map(_is_int, p)) and sorted(p) == list(range(nf))):
                    out.append(
                        f"symmetry.marked_permutations[{i}]: must be a permutation of 0..{nf - 1}"
                    )
        if not isinstance(sym.get("induced_cyclic"), bool):
            out.append("symmetry.induced_cyclic: missing or not a boolean")
    return points, moebius


def _validate_pair(data: dict, out: list):
    """The marked points, their coefficients as ``parse_ratio`` pairs (None
    for "-inf") and the Moebius generators."""
    entries = data.get("points")
    points, coeffs, moebius = [], [], []
    if not isinstance(entries, list):
        out.append("points: missing or not an array")
    else:
        seen = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                out.append(f"points[{i}]: must be an object")
                continue
            points.append(_check_point(entry.get("pt"), f"points[{i}].pt", out, seen))
            coeff = entry.get("coeff")
            coeffs.append(None if coeff == "-inf" else _ratio(coeff))
            if coeffs[-1] is None and coeff != "-inf":
                out.append(f"points[{i}].coeff: must be a rational or \"-inf\"")
    mg = data.get("moebius_generators")
    if not isinstance(mg, list) or not mg:
        out.append("moebius_generators: must be a nonempty array")
    else:
        moebius = [
            _check_matrix(g, f"moebius_generators[{i}]", out, square=2, integer=False)
            for i, g in enumerate(mg)
        ]
    return points, coeffs, moebius


def _validate_weights(data: dict, out: list):
    labels = data.get("labels")
    if not (isinstance(labels, list) and labels and all(isinstance(l, str) for l in labels)):
        out.append("labels: must be a nonempty array of strings")
        labels = None
    else:
        if len(set(labels)) != len(labels):
            out.append("labels: must be distinct")
        # a support is written and read as labels joined by commas; a line
        # break at either end is surrounding whitespace
        for i, label in enumerate(labels):
            problem = _line_problem(label)
            if problem != _NOT_TEXT and (not label or "," in label or label != label.strip()):
                problem = f"{label!r} must be nonempty, without a comma or surrounding whitespace"
            if problem:
                out.append(f"labels[{i}]: {problem}")
    weights = data.get("weights")
    _check_matrix(weights, "weights", out)
    if isinstance(weights, list) and labels and all(isinstance(r, list) for r in weights):
        if any(len(r) != len(labels) for r in weights):
            out.append("weights: one column per label")
    claimed = data.get("claimed_polystable_supports_any_of")
    if claimed is not None:
        if not (isinstance(claimed, list) and all(isinstance(s, list) for s in claimed)):
            out.append("claimed_polystable_supports_any_of: must be an array of label arrays")
        elif labels:
            for i, s in enumerate(claimed):
                for l in s:
                    if l not in labels:
                        out.append(
                            f"claimed_polystable_supports_any_of[{i}]: unknown label {l!r}"
                        )


def _validate_chow(data: dict, out: list):
    fan = data.get("fan")
    if not isinstance(fan, dict):
        out.append("fan: missing or not an object")
        return
    rank = fan.get("rank")
    if not _is_int(rank) or rank < 1:
        out.append("fan.rank: must be a positive integer")
        rank = None
    cones = fan.get("cones")
    if not isinstance(cones, list) or not cones:
        out.append("fan.cones: must be a nonempty array")
    else:
        for i, cone in enumerate(cones):
            if not isinstance(cone, dict) or "generators" not in cone:
                out.append(f"fan.cones[{i}]: must be an object with generators")
                continue
            gens = cone["generators"]
            if not isinstance(gens, list):
                out.append(f"fan.cones[{i}].generators: must be an array")
                continue
            for j, g in enumerate(gens):
                if not (isinstance(g, list) and (rank is None or len(g) == rank)
                        and all(_is_int(x) for x in g)):
                    out.append(f"fan.cones[{i}].generators[{j}]: must be an integer vector of length rank")
    _check_matrix(data.get("projection"), "projection", out)
    proj = data.get("projection")
    if isinstance(proj, list) and proj and isinstance(proj[0], list) and rank is not None:
        if len(proj[0]) != rank:
            out.append("projection: columns must match fan.rank")


def _validate_lattice(data: dict, out: list):
    rank = data.get("rank")
    if not _is_int(rank) or rank < 1:
        out.append("rank: must be a positive integer")
        rank = None
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        out.append("generators: must be a nonempty array")
    else:
        for i, g in enumerate(gens):
            _check_matrix(g, f"generators[{i}]", out, square=rank)


# (key, kind, check) per document kind, in the order they are tried
_KINDS = (
    ("fibers", "variety", _validate_variety),
    ("points", "pair", _validate_pair),
    ("weights", "weights", _validate_weights),
    ("fan", "chow", _validate_chow),
    ("generators", "lattice", _validate_lattice),
)


def _check_document(data: dict) -> tuple[str | None, list[str], object]:
    """The kind of ``data`` (None when unrecognized), its structural problems,
    each with its JSON path, and what its check parsed (None for a kind with
    nothing to parse).  A document of any kind may carry a ``name``, a
    string that a report can print as one line."""
    for key, kind, check in _KINDS:
        if key in data:
            name = data.get("name", "")
            problem = _line_problem(name) if isinstance(name, str) else "must be str"
            out = [f"name: {problem}"] if problem else []
            return kind, out, check(data, out)
    return None, [f"unrecognized file format (no {'/'.join(key for key, _, _ in _KINDS)} key)"], None


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------


def _require_valid(data: dict, kind: str):
    """What the check of a well-formed ``kind`` document parsed; InputError otherwise."""
    actual, problems, parsed = _check_document(data)
    if problems:
        raise InputError("; ".join(problems))
    if actual != kind:
        raise InputError(f"expected a {kind} file, found {actual}")
    return parsed


def load_variety(data: dict) -> CxOneVariety:
    from .exact import IntMatrix, ProjPoint
    from .groups import LatticeAutGroup, MoebiusElement
    from .tvariety import CxOneVariety, DeclaredAction, Fiber, VerticalDivisor

    points, moebius = _require_valid(data, "variety")
    fibers = tuple(
        Fiber(
            ProjPoint._make(pt, None),
            tuple(VerticalDivisor(d["name"], d["order"]) for d in f["divisors"]),
        )
        for f, pt in zip(data["fibers"], points)
    )
    sym = data["symmetry"]
    lattice = LatticeAutGroup(data["dim"] - 1, [IntMatrix(g) for g in sym["lattice_generators"]])
    declared = None
    if moebius is not None:
        moebius = tuple(MoebiusElement._from_ratios(g[0] + g[1]) for g in moebius)
    else:
        declared = DeclaredAction(
            tuple(tuple(p) for p in sym["marked_permutations"]),
            bool(sym["induced_cyclic"]),
        )
    return CxOneVariety(
        name=data["name"],
        dim=data["dim"],
        fibers=fibers,
        horizontals=tuple(data.get("horizontal", [])),
        lattice=lattice,
        moebius_generators=moebius,
        declared=declared,
        fano=data["fano"],
        log_terminal=data["log_terminal"],
    )


def load_pair(data: dict) -> tuple[MarkedCurvePair, tuple[MoebiusElement, ...]]:
    from .curvepair import NEG_INFINITY, MarkedCurvePair
    from .exact import ProjPoint
    from .groups import MoebiusElement
    from .rationals import Q

    points, coeffs, moebius = _require_valid(data, "pair")
    # the check rejected a repeated point, so the pair is built unchecked
    marked = tuple(
        (ProjPoint._make(pt, None), NEG_INFINITY if c is None else Q(*c))
        for pt, c in zip(points, coeffs)
    )
    generators = tuple(MoebiusElement._from_ratios(g[0] + g[1]) for g in moebius)
    return MarkedCurvePair._make(marked), generators


def load_weights(data: dict) -> tuple[WeightMatrix, list[tuple[str, ...]] | None]:
    from .exact import IntMatrix
    from .quotients import WeightMatrix

    _require_valid(data, "weights")
    wm = WeightMatrix(data["labels"], IntMatrix(data["weights"]))
    claimed = data.get("claimed_polystable_supports_any_of")
    if claimed is not None:
        claimed = [tuple(sorted(s, key=wm.labels.index)) for s in claimed]
    return wm, claimed


def load_chow(data: dict) -> tuple[Fan, IntMatrix]:
    from .exact import IntMatrix
    from .polyhedral import Cone, Fan

    _require_valid(data, "chow")
    fan_data = data["fan"]
    rank = fan_data["rank"]
    cones = tuple(Cone(rank, c["generators"]) for c in fan_data["cones"])
    return Fan(rank, cones), IntMatrix(data["projection"])


def load_lattice(data: dict) -> LatticeAutGroup:
    from .exact import IntMatrix
    from .groups import LatticeAutGroup

    _require_valid(data, "lattice")
    return LatticeAutGroup(data["rank"], [IntMatrix(g) for g in data["generators"]])


def fixture_path(name: str) -> Path:
    from pathlib import Path

    return Path(__file__).parent / "fixtures" / name
