"""Orbit-closedness of diagonal torus actions, with certificates, and the
refinement fan of a toric quotient.

A point is polystable (closed orbit) exactly when the active weight columns
admit a strictly positive balancing; otherwise a one-parameter subgroup whose
limit leaves the orbit is produced.  This module hands the support's weight
columns to ``exact``, which decides the alternative and checks either
certificate by plain integer arithmetic, in one predicate for both.  Only
the functions that build cones import ``polyhedral``.
"""

from __future__ import annotations

from .errors import InputError, NotSurjective, TooManyCoordinates
from .exact import (
    IntMatrix,
    PositiveCombination,
    Record,
    SemipositiveWitness,
    _certifies,
    _decide,
    smith_normal_form,
)

LOCUS_COORDINATE_CAP = 20


class WeightMatrix(Record):
    """Diagonal torus action: column i is the weight vector of coordinate i.

    ``torus_rank`` is computed from ``weights``, as its number of rows.
    """

    __slots__ = _fields = ("labels", "weights")

    def __init__(self, labels, weights: IntMatrix):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise InputError("coordinate labels must be distinct")
        if weights.cols != len(labels):
            raise InputError("one weight column per coordinate label")
        super().__init__(labels, weights)

    @property
    def torus_rank(self) -> int:
        return self.weights.rows

    @property
    def coordinates(self) -> int:
        return len(self.labels)

    def column(self, label: str) -> tuple[int, ...]:
        return self.weights.col(self.labels.index(label))


#: One-parameter subgroup whose limit leaves the orbit: pairs >= 0 with the
#: active weights, > 0 with at least one.  It is the simplex's witness as is.
Destabilizer = SemipositiveWitness

StabilityCert = PositiveCombination | Destabilizer


def _normalize_support(weight_matrix: WeightMatrix, support) -> tuple[str, ...]:
    support = tuple(support)
    unknown = [l for l in support if l not in weight_matrix.labels]
    if unknown:
        raise InputError(f"unknown coordinates: {unknown}")
    if len(set(support)) != len(support):
        raise InputError("repeated coordinates in the support")
    return tuple(sorted(support, key=weight_matrix.labels.index))


def is_polystable(weight_matrix: WeightMatrix, support) -> tuple[bool, StabilityCert]:
    """Decide orbit-closedness for a point with the given active coordinates.

    The empty support is the origin, a fixed point with a closed orbit: its
    certificate is the empty positive combination.
    """
    # the entries were checked when ``weight_matrix.weights`` was built
    return _decide(_rows(weight_matrix, support), {})


def _rows(weight_matrix: WeightMatrix, support) -> tuple[tuple[int, ...], ...]:
    """The rows of the support's weight columns, in coordinate order; no rows for the empty support."""
    return tuple(zip(*(weight_matrix.column(l) for l in _normalize_support(weight_matrix, support))))


def verify_stability_cert(weight_matrix: WeightMatrix, support, cert: StabilityCert) -> bool:
    """Exact check of either certificate against the support's weight columns.

    It is ``exact._certifies``, the check that every decision of
    ``is_polystable`` and ``polystable_locus`` has passed before it is
    returned; anything but the two certificate types is rejected.
    """
    rows = _rows(weight_matrix, support)
    polystable = isinstance(cert, PositiveCombination)
    if not polystable and not isinstance(cert, Destabilizer):
        return False
    return _certifies(rows, polystable, (*cert.numerators, cert.denominator) if polystable else cert.vector)


def polystable_locus(weight_matrix: WeightMatrix):
    """Verdict and certificate for every one of the 2^n supports, in
    lexicographic support order.

    Verdict and certificate depend only on the support's ordered submatrix,
    so each distinct submatrix is decided once, by one phase-one LP in
    ``exact._decide`` on its integer rows; supports whose columns repeat the
    same weights in the same order share its answer.  The submatrix is keyed
    by an int: number the distinct weight columns 1..k, and read the numbers
    of the support's columns, in coordinate order, as the digits of a number
    in base k + 1.  No digit is 0, so distinct submatrices get distinct keys,
    and the empty support gets 0.  Certificates are shared by their
    integers, so each distinct certificate is built once and the rows that
    carry it hold one object.
    """
    n = weight_matrix.coordinates
    if n > LOCUS_COORDINATE_CAP:
        raise TooManyCoordinates(f"{n} coordinates exceed the 2^n enumeration cap")
    labels = weight_matrix.labels
    columns = [weight_matrix.weights.col(j) for j in range(n)]
    classes = list(dict.fromkeys(columns))
    base = len(classes) + 1
    # per start, the extensions of a support by a coordinate j >= start, in
    # reverse label order: popped from the stack, they come after it in label
    # order; each as its label, its column, its digit and the next start
    reverse_by_label = sorted(range(n), key=labels.__getitem__, reverse=True)
    later = [
        [((labels[j],), (columns[j],), classes.index(columns[j]) + 1, j + 1) for j in reverse_by_label if j >= start]
        for start in range(n + 1)
    ]
    decided = {}
    # each distinct answer, keyed by its kind and the integers of its certificate
    interned = {}
    rows = []
    # a support, its weight columns in coordinate order, their key and the
    # first coordinate that may extend it
    stack = [((), (), 0, 0)]
    while stack:
        support, sub, key, start = stack.pop()
        answer = decided.get(key)
        if answer is None:
            # the entries were checked when ``weight_matrix.weights`` was built
            answer = decided[key] = _decide(tuple(zip(*sub)), interned)
        rows.append((support, *answer))
        key *= base
        stack += [(support + label, sub + column, key + digit, j) for label, column, digit, j in later[start]]
    return rows


def destabilizer_candidates(weight_matrix: WeightMatrix, support) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of the dual of the active-weight cone: a finite exhaustive
    candidate set for one-parameter subgroups (used as the independent oracle)."""
    from .polyhedral import Cone, dual_cone

    support = _normalize_support(weight_matrix, support)
    cone = Cone(weight_matrix.torus_rank, [weight_matrix.column(l) for l in support])
    return dual_cone(cone).rays


def is_polystable_oracle(weight_matrix: WeightMatrix, support) -> bool:
    """Exhaustive limit search over the finite candidate set of subgroups."""
    support = _normalize_support(weight_matrix, support)
    if not support:
        return True
    for v in destabilizer_candidates(weight_matrix, support):
        pairings = [
            sum(a * b for a, b in zip(v, weight_matrix.column(l))) for l in support
        ]
        if all(p >= 0 for p in pairings) and any(p > 0 for p in pairings):
            return False
    return True


def chow_quotient_fan(fan: Fan, projection: IntMatrix) -> tuple[Fan, tuple[Cone, ...]]:
    """A common refinement of the full-dimensional images of the maximal
    cones that is a fan, and the maximal cones whose image spans less than
    the target: those neither hold nor cut a cell.

    The projection must be onto the target lattice (all invariant factors 1).
    Each maximal cone is mapped once.
    """
    from .polyhedral import common_refinement, image_cone

    if projection.cols != fan.ambient_rank:
        raise InputError("projection columns must match the fan's ambient rank")
    _, d, _ = smith_normal_form(projection)
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    if len(diag) < projection.rows or any(x != 1 for x in diag[: projection.rows]):
        raise NotSurjective("projection is not onto the target lattice")
    maximal = fan.maximal_cones
    images = [image_cone(c, projection) for c in maximal]
    flat = tuple(c for c, image in zip(maximal, images) if image.dim < projection.rows)
    return common_refinement(images), flat
