"""Exact certificates for the existence question on complexity-one torus
varieties, computed on the quotient line.

The package decides, from a combinatorial presentation of the variety, the
symmetry of the torus action, the boundary pair on the quotient, equivariant
global log canonical thresholds, and the resulting existence verdict; on the
deformation side it decides torus orbit-closedness with exact certificates
and computes refinement fans of toric quotients.  All arithmetic is exact.

The names below are imported from their submodule the first time one is read
(PEP 562), so ``import symfano`` loads no submodule.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_API = {
    name: module
    for module, names in (
        ("curvepair", "NEG_INFINITY LctResult MarkedCurvePair finite_degree is_valuable lct_g"),
        ("exact", "IntMatrix PositiveCombination ProjPoint SemipositiveWitness integer_kernel smith_normal_form"),
        (
            "groups",
            "LatticeAutGroup MoebiusElement MoebiusGroup Orbit closure exceptional_orbits fixed_sublattice"
            " has_global_fixed_point is_symmetric orbit_of",
        ),
        ("polyhedral", "Cone Fan common_refinement dual_cone image_cone"),
        (
            "quotients",
            "Destabilizer WeightMatrix chow_quotient_fan is_polystable polystable_locus"
            " verify_stability_cert",
        ),
        ("rationals", "BACKEND Q rat"),
        (
            "tvariety",
            "CxOneVariety DeclaredAction Fiber KEVerdict VerticalDivisor anticanonical_lift"
            " boundary glct glct_info ke_verdict non_reduced_fibers",
        ),
    )
    for name in names.split()
}

__all__ = list(_API)


def __getattr__(name):
    if name not in _API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_API[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
