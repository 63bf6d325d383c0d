"""Electromagnetics of moving media as differential forms on flat spacetime.

The package represents the Maxwell and excitation 2-forms over 4D charts,
applies the covariant constitutive relation of arbitrarily moving
isotropic media, enforces covariant junction conditions on moving
interfaces, and ships the exact rotating-shell and first-order
rotating-sphere solutions with machine-verifiable residuals.
"""

from .fields import ScalarField
from .forms import (
    ChartMismatchError,
    DegenerateMetricError,
    DiagonalMetric,
    DifferentialForm,
    GradeMismatchError,
    MultiIndex,
    VectorField4,
    evaluate,
    exterior_derivative,
    hodge_star,
    interior_product,
    linear_combine,
    lower_index,
    wedge,
    zero_form,
)
from .spacetime import (
    Chart,
    LightConeError,
    cartesian_chart,
    cylindrical_chart,
    lab_frame,
    rotating_velocity,
    spherical_chart,
)
from .media import (
    EMDecomposition,
    MaterialParams,
    TransversalityError,
    apply_constitutive,
    bound_sources,
    decompose,
    polarization,
    recompose,
)
from .junction import (
    Interface,
    InterfaceSampleError,
    JumpReport,
    covariant_jump_residual,
    gibbs_jump_residual,
    interface_normal_velocity,
)
from .solutions import (
    CylinderConstants,
    FieldSolution,
    MatchingError,
    MaxwellReport,
    SphereConstants,
    verify_solution,
)
from .cylinder import (
    CylinderScenario,
    cylinder_bound_sources,
    match_cylinder_constants,
    nonrelativistic_limit,
    pellegrini_swift_field,
    solve_cylinder,
    wilson_wilson_V12,
)
from .sphere import SphereScenario, match_sphere_constants, solve_sphere

__version__ = "0.1.0"

__all__ = [
    "ScalarField",
    "DifferentialForm",
    "VectorField4",
    "DiagonalMetric",
    "MultiIndex",
    "Chart",
    "MaterialParams",
    "EMDecomposition",
    "Interface",
    "JumpReport",
    "FieldSolution",
    "MaxwellReport",
    "CylinderConstants",
    "SphereConstants",
    "CylinderScenario",
    "SphereScenario",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "hodge_star",
    "linear_combine",
    "evaluate",
    "lower_index",
    "zero_form",
    "cartesian_chart",
    "cylindrical_chart",
    "spherical_chart",
    "lab_frame",
    "rotating_velocity",
    "apply_constitutive",
    "decompose",
    "recompose",
    "polarization",
    "bound_sources",
    "covariant_jump_residual",
    "gibbs_jump_residual",
    "interface_normal_velocity",
    "solve_cylinder",
    "match_cylinder_constants",
    "cylinder_bound_sources",
    "wilson_wilson_V12",
    "pellegrini_swift_field",
    "nonrelativistic_limit",
    "solve_sphere",
    "match_sphere_constants",
    "verify_solution",
    "ChartMismatchError",
    "GradeMismatchError",
    "DegenerateMetricError",
    "LightConeError",
    "TransversalityError",
    "InterfaceSampleError",
    "MatchingError",
]
