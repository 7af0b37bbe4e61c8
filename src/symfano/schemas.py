"""JSON file formats: structural validation and loading.

One format per subject.  ``validate_data`` reports every structural problem
with its JSON path and never computes anything; the ``load_*`` functions
build the domain objects (construction-time checks other than schema shape,
e.g. unimodularity, live in the domain types).  Each loader imports its own
domain types, so validation loads no subject module.

Formats (rationals are ``"p/q"`` strings or bare integers; points are
``[x, y]`` homogeneous pairs):

* variety     -- name, dim, fano, log_terminal, fibers: [{point, divisors:
                 [{name, order}]}], horizontal: [names], symmetry:
                 {lattice_generators, and either moebius_generators or
                 marked_permutations + induced_cyclic}
* pair        -- points: [{pt, coeff ("-inf" allowed)}], moebius_generators
* weights     -- labels, weights (one row per torus factor), optional
                 claimed_polystable_supports_any_of
* chow        -- fan: {rank, cones: [{generators}]}, projection
* lattice     -- rank, generators
"""

from __future__ import annotations

import json

from .errors import InputError
from .rationals import parse_rat


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


def detect_kind(data: dict) -> str:
    if "fibers" in data:
        return "variety"
    if "points" in data:
        return "pair"
    if "weights" in data:
        return "weights"
    if "fan" in data:
        return "chow"
    if "generators" in data:
        return "lattice"
    raise InputError("unrecognized file format (no fibers/points/weights/fan/generators key)")


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


def _is_rat(x) -> bool:
    if isinstance(x, bool):
        return False
    if isinstance(x, int):
        return True
    if isinstance(x, str):
        try:
            parse_rat(x)
            return True
        except InputError:
            return False
    return False


def _check_point(value, path, out):
    if not (isinstance(value, list) and len(value) == 2 and all(_is_rat(v) for v in value)):
        out.append(f"{path}: must be a pair of rationals")
        return
    if all(parse_rat(v) == 0 for v in value):
        out.append(f"{path}: (0, 0) is not a projective point")


def _check_matrix(value, path, out, square=None, integer=True):
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        out.append(f"{path}: must be a nonempty array of rows")
        return
    width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            out.append(f"{path}[{i}]: ragged row")
            return
        for j, x in enumerate(row):
            if integer and not (isinstance(x, int) and not isinstance(x, bool)):
                out.append(f"{path}[{i}][{j}]: must be an integer")
            elif not integer and not _is_rat(x):
                out.append(f"{path}[{i}][{j}]: must be a rational")
    if square is not None and (len(value) != square or width != square):
        out.append(f"{path}: must be {square}x{square}")


def _validate_variety(data: dict, out: list):
    for key, typ in (("name", str), ("dim", int), ("fano", bool), ("log_terminal", bool)):
        if key not in data:
            out.append(f"{key}: missing")
        elif not isinstance(data[key], typ):
            out.append(f"{key}: must be {typ.__name__}")
    if isinstance(data.get("dim"), int) and data["dim"] < 2:
        out.append("dim: must be >= 2")
    fibers = data.get("fibers")
    names = []
    if not isinstance(fibers, list):
        out.append("fibers: missing or not an array")
    else:
        for i, fiber in enumerate(fibers):
            if not isinstance(fiber, dict):
                out.append(f"fibers[{i}]: must be an object")
                continue
            _check_point(fiber.get("point"), f"fibers[{i}].point", out)
            divisors = fiber.get("divisors")
            if not isinstance(divisors, list):
                out.append(f"fibers[{i}].divisors: missing or not an array")
                continue
            for j, div in enumerate(divisors):
                if not isinstance(div, dict):
                    out.append(f"fibers[{i}].divisors[{j}]: must be an object")
                    continue
                if not isinstance(div.get("name"), str):
                    out.append(f"fibers[{i}].divisors[{j}].name: missing or not a string")
                else:
                    names.append(div["name"])
                order = div.get("order")
                if not isinstance(order, int) or isinstance(order, bool) or order < 1:
                    out.append(f"fibers[{i}].divisors[{j}].order: order must be >= 1")
    horizontal = data.get("horizontal", [])
    if not isinstance(horizontal, list) or not all(isinstance(h, str) for h in horizontal):
        out.append("horizontal: must be an array of names")
    else:
        names.extend(horizontal)
    dupes = sorted({n for n in names if names.count(n) > 1})
    for n in dupes:
        out.append(f"duplicate divisor name: {n}")
    sym = data.get("symmetry")
    if not isinstance(sym, dict):
        out.append("symmetry: missing or not an object")
        return
    rank = data["dim"] - 1 if isinstance(data.get("dim"), int) else None
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
    if explicit:
        mg = sym["moebius_generators"]
        if not isinstance(mg, list) or (isinstance(gens, list) and len(mg) != len(gens)):
            out.append("symmetry.moebius_generators: one 2x2 matrix per lattice generator")
        else:
            for i, g in enumerate(mg):
                _check_matrix(g, f"symmetry.moebius_generators[{i}]", out, square=2, integer=False)
    if declared:
        perms = sym.get("marked_permutations")
        nf = len(fibers) if isinstance(fibers, list) else 0
        if not isinstance(perms, list) or (isinstance(gens, list) and len(perms) != len(gens)):
            out.append("symmetry.marked_permutations: one permutation per lattice generator")
        else:
            for i, p in enumerate(perms):
                if not (isinstance(p, list) and sorted(p) == list(range(nf))):
                    out.append(
                        f"symmetry.marked_permutations[{i}]: must be a permutation of 0..{nf - 1}"
                    )
        if not isinstance(sym.get("induced_cyclic"), bool):
            out.append("symmetry.induced_cyclic: missing or not a boolean")


def _validate_pair(data: dict, out: list):
    points = data.get("points")
    if not isinstance(points, list):
        out.append("points: missing or not an array")
    else:
        for i, entry in enumerate(points):
            if not isinstance(entry, dict):
                out.append(f"points[{i}]: must be an object")
                continue
            _check_point(entry.get("pt"), f"points[{i}].pt", out)
            coeff = entry.get("coeff")
            if coeff != "-inf" and not _is_rat(coeff):
                out.append(f"points[{i}].coeff: must be a rational or \"-inf\"")
    mg = data.get("moebius_generators")
    if not isinstance(mg, list) or not mg:
        out.append("moebius_generators: must be a nonempty array")
    else:
        for i, g in enumerate(mg):
            _check_matrix(g, f"moebius_generators[{i}]", out, square=2, integer=False)


def _validate_weights(data: dict, out: list):
    labels = data.get("labels")
    if not (isinstance(labels, list) and labels and all(isinstance(l, str) for l in labels)):
        out.append("labels: must be a nonempty array of strings")
        labels = None
    elif len(set(labels)) != len(labels):
        out.append("labels: must be distinct")
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
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
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
                        and all(isinstance(x, int) and not isinstance(x, bool) for x in g)):
                    out.append(f"fan.cones[{i}].generators[{j}]: must be an integer vector of length rank")
    _check_matrix(data.get("projection"), "projection", out)
    proj = data.get("projection")
    if isinstance(proj, list) and proj and isinstance(proj[0], list) and rank is not None:
        if len(proj[0]) != rank:
            out.append("projection: columns must match fan.rank")


def _validate_lattice(data: dict, out: list):
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        out.append("rank: must be a positive integer")
        rank = None
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        out.append("generators: must be a nonempty array")
    else:
        for i, g in enumerate(gens):
            _check_matrix(g, f"generators[{i}]", out, square=rank)


_VALIDATORS = {
    "variety": _validate_variety,
    "pair": _validate_pair,
    "weights": _validate_weights,
    "chow": _validate_chow,
    "lattice": _validate_lattice,
}


def validate_data(data: dict) -> list[str]:
    """All structural problems, each with its JSON path; empty means well-formed."""
    out: list[str] = []
    try:
        kind = detect_kind(data)
    except InputError as exc:
        return [str(exc)]
    _VALIDATORS[kind](data, out)
    return out


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------


def _require_valid(data: dict, kind: str):
    problems = validate_data(data)
    if problems:
        raise InputError("; ".join(problems))
    actual = detect_kind(data)
    if actual != kind:
        raise InputError(f"expected a {kind} file, found {actual}")


def load_variety(data: dict) -> CxOneVariety:
    from .exact import IntMatrix, ProjPoint
    from .groups import LatticeAutGroup, MoebiusElement
    from .tvariety import (
        CxOneVariety,
        DeclaredAction,
        Fiber,
        FiberBook,
        HorizontalDivisor,
        VerticalDivisor,
    )

    _require_valid(data, "variety")
    fibers = FiberBook(
        Fiber(
            ProjPoint(*map(parse_rat, f["point"])),
            tuple(VerticalDivisor(d["name"], d["order"]) for d in f["divisors"]),
        )
        for f in data["fibers"]
    )
    sym = data["symmetry"]
    lattice = LatticeAutGroup(data["dim"] - 1, [IntMatrix(g) for g in sym["lattice_generators"]])
    moebius = None
    declared = None
    if "moebius_generators" in sym:
        moebius = tuple(MoebiusElement(g) for g in sym["moebius_generators"])
    else:
        declared = DeclaredAction(
            tuple(tuple(p) for p in sym["marked_permutations"]),
            bool(sym["induced_cyclic"]),
        )
    return CxOneVariety(
        name=data["name"],
        dim=data["dim"],
        fibers=fibers,
        horizontals=tuple(HorizontalDivisor(h) for h in data.get("horizontal", [])),
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

    _require_valid(data, "pair")
    marked = []
    for entry in data["points"]:
        coeff = NEG_INFINITY if entry["coeff"] == "-inf" else parse_rat(entry["coeff"])
        marked.append((ProjPoint(*map(parse_rat, entry["pt"])), coeff))
    generators = tuple(MoebiusElement(g) for g in data["moebius_generators"])
    return MarkedCurvePair(marked), generators


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
