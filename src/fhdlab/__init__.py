"""Numerical laboratory for the financial Harry Dym equation.

Builds, validates and evolves travelling-wave (soliton) solutions of
v_t = v^3 (v_xxx - v_x) and verifies the zero-curvature structure behind it.
"""

from .core import (
    Field,
    Grid1D,
    NumericalError,
    SolitonParams,
    Trajectory,
    make_grid,
)
from .evolution import (
    EvolutionAborted,
    EvolveConfig,
    conservation_drift,
    evolve,
    measure_speed,
    rhs_fhd,
    shape_error,
    shift_field,
)
from .lax import (
    LaxResidualReport,
    ReductionReport,
    reduction_check,
    zc_residual,
)
from .pseudopotential import (
    eval_S,
    existence_check,
    phase_branch,
    turning_point,
)
from .profiles import (
    Profile,
    ProfileMetrics,
    closed_form_field,
    decay_rate,
    profile_by_quadrature,
    profile_by_shooting,
    profile_metrics,
    translated_trajectory,
)

__all__ = [
    "Field",
    "Grid1D",
    "NumericalError",
    "SolitonParams",
    "Trajectory",
    "make_grid",
    "EvolutionAborted",
    "EvolveConfig",
    "conservation_drift",
    "evolve",
    "measure_speed",
    "rhs_fhd",
    "shape_error",
    "shift_field",
    "LaxResidualReport",
    "ReductionReport",
    "reduction_check",
    "zc_residual",
    "eval_S",
    "existence_check",
    "phase_branch",
    "turning_point",
    "Profile",
    "ProfileMetrics",
    "closed_form_field",
    "decay_rate",
    "profile_by_quadrature",
    "profile_by_shooting",
    "profile_metrics",
    "translated_trajectory",
]

__version__ = "0.1.0"
