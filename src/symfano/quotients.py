"""Orbit-closedness of diagonal torus actions, with certificates, and the
refinement fan of a toric quotient.

A point is polystable (closed orbit) exactly when the active weight columns
admit a strictly positive balancing; otherwise a one-parameter subgroup whose
limit leaves the orbit is produced.  Both certificates verify by plain
integer arithmetic against the weight matrix.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError, NotSurjective, TooManyCoordinates
from .exact import (
    IntMatrix,
    PositiveCombination,
    SemipositiveWitness,
    smith_normal_form,
    solve_positive_combination,
)
from .polyhedral import Cone, Fan, common_refinement, dual_cone, image_cone

LOCUS_COORDINATE_CAP = 20


class WeightMatrix:
    """Diagonal torus action: column i is the weight vector of coordinate i."""

    __slots__ = ("torus_rank", "labels", "weights")

    def __init__(self, labels, weights: IntMatrix):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise InputError("coordinate labels must be distinct")
        if weights.cols != len(labels):
            raise InputError("one weight column per coordinate label")
        object.__setattr__(self, "torus_rank", weights.rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, *_):
        raise AttributeError("WeightMatrix is immutable")

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

    The empty support is the origin, a fixed point with a closed orbit.
    """
    support = _normalize_support(weight_matrix, support)
    return _decide(weight_matrix.weights, [weight_matrix.labels.index(l) for l in support])


def _decide(weights: IntMatrix, columns) -> tuple[bool, StabilityCert]:
    """Verdict and certificate for the support made of the given column indices."""
    if not columns:
        return True, PositiveCombination(())
    # the entries were checked when ``weights`` was built
    sub = IntMatrix._make(tuple(tuple(row[j] for j in columns) for row in weights.entries), len(columns))
    result = solve_positive_combination(sub)
    return isinstance(result, PositiveCombination), result


def verify_stability_cert(weight_matrix: WeightMatrix, support, cert: StabilityCert) -> bool:
    """Independent exact check of either certificate against the weight columns."""
    support = _normalize_support(weight_matrix, support)
    cols = [weight_matrix.column(l) for l in support]
    if isinstance(cert, PositiveCombination):
        # lambda_i = numerators[i] / denominator with denominator > 0
        lam = cert.numerators
        if len(lam) != len(cols) or any(c <= 0 for c in lam):
            return False
        return all(
            sum(c * col[i] for c, col in zip(lam, cols)) == 0
            for i in range(weight_matrix.torus_rank)
        )
    if isinstance(cert, Destabilizer):
        if not support:
            return False
        pairings = [sum(a * b for a, b in zip(cert.vector, col)) for col in cols]
        return all(p >= 0 for p in pairings) and any(p > 0 for p in pairings)
    return False


def polystable_locus(weight_matrix: WeightMatrix):
    """Verdict and certificate for every one of the 2^n supports, in
    lexicographic support order."""
    n = weight_matrix.coordinates
    if n > LOCUS_COORDINATE_CAP:
        raise TooManyCoordinates(f"{n} coordinates exceed the 2^n enumeration cap")
    labels = weight_matrix.labels
    subsets = sorted(
        (columns for r in range(n + 1) for columns in combinations(range(n), r)),
        key=lambda columns: [labels[j] for j in columns],
    )
    return [
        (tuple(labels[j] for j in columns), *_decide(weight_matrix.weights, columns))
        for columns in subsets
    ]


def destabilizer_candidates(weight_matrix: WeightMatrix, support) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of the dual of the active-weight cone: a finite exhaustive
    candidate set for one-parameter subgroups (used as the independent oracle)."""
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


def chow_quotient_fan(fan: Fan, projection: IntMatrix) -> Fan:
    """A common refinement of the images of the maximal cones that is a fan.

    The projection must be onto the target lattice (all invariant factors 1).
    """
    if projection.cols != fan.ambient_rank:
        raise InputError("projection columns must match the fan's ambient rank")
    _, d, _ = smith_normal_form(projection)
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    if len(diag) < projection.rows or any(x != 1 for x in diag[: projection.rows]):
        raise NotSurjective("projection is not onto the target lattice")
    images = [image_cone(c, projection) for c in fan.maximal_cones]
    return common_refinement(images)


def lower_dimensional_images(fan: Fan, projection: IntMatrix) -> tuple[Cone, ...]:
    """The maximal cones of ``fan`` whose image spans less than the target.

    Their images hold no cell of ``chow_quotient_fan``.  An image spans the
    target exactly when the Gram matrix of its generators is invertible.
    """
    out = []
    for cone in fan.maximal_cones:
        images = [projection.apply(g) for g in cone.generators]
        rows = range(projection.rows)
        if IntMatrix([[sum(u[i] * u[j] for u in images) for j in rows] for i in rows]).det() == 0:
            out.append(cone)
    return tuple(out)
