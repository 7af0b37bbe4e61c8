"""Exact certificates for the existence question on complexity-one torus
varieties, computed on the quotient line.

The package decides, from a combinatorial presentation of the variety, the
symmetry of the torus action, the boundary pair on the quotient, equivariant
global log canonical thresholds, and the resulting existence verdict; on the
deformation side it decides torus orbit-closedness with exact certificates
and computes refinement fans of toric quotients.  All arithmetic is exact.
"""

from .curvepair import (
    NEG_INFINITY,
    LctResult,
    MarkedCurvePair,
    finite_degree,
    is_valuable,
    lct_g,
)
from .exact import (
    IntMatrix,
    PositiveCombination,
    ProjPoint,
    QuadExtScalar,
    SemipositiveWitness,
    integer_kernel,
    order_from_vertex,
    quadratic_roots,
    smith_normal_form,
    solve_positive_combination,
)
from .groups import (
    LatticeAutGroup,
    MoebiusElement,
    MoebiusGroup,
    Orbit,
    closure,
    exceptional_orbits,
    fixed_points,
    fixed_sublattice,
    has_global_fixed_point,
    is_symmetric,
    orbit_of,
)
from .polyhedral import Cone, Fan, common_refinement, dual_cone, image_cone, intersect
from .quotients import (
    DIVERGES,
    Destabilizer,
    WeightMatrix,
    chow_quotient_fan,
    is_polystable,
    limit_support,
    polystable_locus,
    verify_stability_cert,
)
from .rationals import BACKEND, Q, rat
from .tvariety import (
    CxOneVariety,
    DeclaredAction,
    DivisorOnX,
    Fiber,
    FiberBook,
    HorizontalDivisor,
    KEVerdict,
    PointDivisor,
    VerticalDivisor,
    anticanonical_lift,
    boundary,
    canonical_divisor,
    glct,
    glct_info,
    is_effective,
    ke_verdict,
    multiplicity,
    non_reduced_fibers,
    pullback,
)

__version__ = "0.1.0"
