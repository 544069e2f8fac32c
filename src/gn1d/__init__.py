"""Dispersive shallow-water (Green-Naghdi) solver on a periodic 1D domain."""

from .checks import coercivity_bound, inverse_bound_spreads, rayleigh_ratio
from .core import (
    Bathymetry,
    DepthError,
    FactorizationError,
    Grid,
    NonFiniteError,
    Parameters,
    State,
    StopError,
    compute_depth,
)
from .diagnostics import equivalence_report, es_norm, xs_norm
from .gn_rhs import nonlinear_rhs
from .grid_ops import d1_spectral, inner_product, l2_norm
from .linearized import Mollifier, ReferenceTrajectory, mollify, picard_solve, solve_linear
from .scenarios import (
    SCENARIOS,
    bar_bathymetry,
    build_scenario,
    gaussian_hump,
    rest_state,
    solitary_wave,
)
from .t_operator import apply_T, assemble_T
from .time_integrator import StepControl, run

__version__ = "0.1.0"
