"""Minimal-action connections in weighted metric spaces.

The minimal action of a connection between wells of a potential equals the
minimal weighted geodesic length with weight K = sqrt(2 W) (the reduced
problem).  On the line the geodesic is the segment, and the equipartition
profile follows from it by quadrature; in higher dimensions the discrete
action of a time-sampled curve is minimized directly.
The same machinery runs in function space, where each "point" is a 1D profile
and a path of profiles assembles into a 2D field.  A weight with vanishing
tails shows the limits of the method: its infimum is not attained and the
package demonstrates the escape to infinity numerically.
"""

from .counterexample import (
    P_MINUS,
    P_PLUS,
    CounterexampleWeight,
    DivergentTailError,
    NonexistenceReport,
    candidate_length,
    crossing_lower_bound,
    dense_polyline_length,
    nonexistence_report,
)
from .double_connection import (
    DoubleConnectionResult,
    DoubleOptions,
    TranslationSpeedAudit,
    assemble_and_verify,
    audit_translation_speed,
    planar_effective_space,
    sin_example_space,
    solve_asymmetric,
    solve_symmetric,
)
from .function_space import (
    EffectivePotentialSpace,
    FunnelEntryError,
    FunnelProfile,
    GridFunction,
    funnel_profile,
    funnel_project,
    gauge_fix_translations,
    mollify,
    optimal_translation,
    translation_misfits,
    translation_objective,
)
from .geodesic import minimize_k_length
from .heteroclinic import (
    ConnectionReport,
    ConnectionResult,
    InteriorZeroError,
    line_connection,
    line_legs,
    reparam_equipartition,
    verify_connection,
)
from .metric import (
    EuclideanSpace,
    GridL2Space,
    SampledCurve,
    WeightedSpace,
    a_k_functional,
    k_length,
    metric_derivative,
    segment_lengths,
)
from .potentials import (
    A4Fit,
    Potential,
    check_a4,
    double_well,
    make_weight,
    planar_two_well,
    triple_well,
)
from .regularity import (
    SecondDifferenceReport,
    SpectralReport,
    UniformBoundsReport,
    parallelogram_defect,
    second_difference_bound,
    spectral_audit,
    uniform_bounds_audit,
)

__version__ = "0.1.0"

__all__ = [
    "A4Fit",
    "ConnectionReport",
    "ConnectionResult",
    "CounterexampleWeight",
    "DivergentTailError",
    "DoubleConnectionResult",
    "DoubleOptions",
    "EffectivePotentialSpace",
    "EuclideanSpace",
    "FunnelEntryError",
    "FunnelProfile",
    "GridFunction",
    "GridL2Space",
    "InteriorZeroError",
    "NonexistenceReport",
    "P_MINUS",
    "P_PLUS",
    "Potential",
    "SampledCurve",
    "SecondDifferenceReport",
    "SpectralReport",
    "TranslationSpeedAudit",
    "UniformBoundsReport",
    "WeightedSpace",
    "a_k_functional",
    "assemble_and_verify",
    "audit_translation_speed",
    "candidate_length",
    "check_a4",
    "crossing_lower_bound",
    "dense_polyline_length",
    "double_well",
    "funnel_profile",
    "funnel_project",
    "gauge_fix_translations",
    "k_length",
    "line_connection",
    "line_legs",
    "make_weight",
    "metric_derivative",
    "minimize_k_length",
    "mollify",
    "nonexistence_report",
    "optimal_translation",
    "parallelogram_defect",
    "planar_effective_space",
    "planar_two_well",
    "reparam_equipartition",
    "second_difference_bound",
    "segment_lengths",
    "sin_example_space",
    "solve_asymmetric",
    "solve_symmetric",
    "spectral_audit",
    "translation_misfits",
    "translation_objective",
    "triple_well",
    "uniform_bounds_audit",
    "verify_connection",
]
