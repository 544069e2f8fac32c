"""Dispersive shallow-water (Green-Naghdi) solver on a periodic 1D domain."""

from .checks import coercivity_bound, inverse_bound_sweep, rayleigh_ratio, sweep_spreads
from .core import (
    Bathymetry,
    DepthError,
    FactorizationError,
    Grid,
    NonFiniteError,
    Parameters,
    State,
    compute_depth,
)
from .diagnostics import (
    DiagnosticRecord,
    conserved_energy,
    equivalence_report,
    es_norm,
    mass,
    record_for,
    xs_norm,
)
from .gn_rhs import Tendency, apply_A, condensed_rhs, eval_B, nonlinear_rhs, q1_apply, q2_eval, q_total
from .grid_ops import (
    BandedOperator,
    apply_symbol,
    d1_fd,
    d1_spectral,
    dealias,
    fd_symbol,
    hs_norm,
    inner_product,
    l2_norm,
    lambda_s,
)
from .linearized import (
    Mollifier,
    PicardResult,
    ReferenceTrajectory,
    cutoff_profile,
    mollify,
    picard_solve,
    solve_linear,
)
from .scenarios import (
    SCENARIOS,
    bar_bathymetry,
    build_scenario,
    gaussian_hump,
    rest_state,
    solitary_speed,
    solitary_wave,
)
from .t_operator import TOperator, apply_T, assemble_T, build_factor_ops, solve_T, solve_T_dx
from .time_integrator import RunOutcome, StepControl, cfl_dt, rk4_step, run

__version__ = "0.1.0"
