"""Per-sample measurements behind the property checks.

`gn1d verify` and the acceptance suite draw their own samples and apply
their own bounds; each function here measures one sample, or one run
history, and draws no random numbers, so both report the same quantity
computed the same way.
"""

from __future__ import annotations

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, compute_depth
from .diagnostics import DiagnosticRecord, EquivalenceRecord
from .gn_rhs import condensed_rhs, nonlinear_rhs, q1_apply, q2_eval, q_total
from .grid_ops import d1_spectral, inner_product, lambda_s
from .linearized import Mollifier, mollify
from .t_operator import TOperator, apply_T, solve_T


def symmetry_defect(op: TOperator) -> float:
    """Largest entry of |T - T^T| for the assembled matrix (0 by construction)."""
    return float(np.max(np.abs(op.dense - op.dense.T)))


def solve_residual(op: TOperator, f: np.ndarray) -> float:
    """|T w - f| / |f| for w = solve_T(op, f)."""
    w = solve_T(op, f)
    return float(np.linalg.norm(apply_T(op, w) - f) / np.linalg.norm(f))


def round_trip(op: TOperator, g: np.ndarray) -> float:
    """|T^{-1} T g - g| / |g|."""
    return float(np.linalg.norm(solve_T(op, apply_T(op, g)) - g) / np.linalg.norm(g))


def source_defect(state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid) -> float:
    """Relative defect of the split source Q1[U] u_x + q2(U) against eps mu h Q(u)."""
    h = compute_depth(state, bathymetry, params)
    ux = d1_spectral(state.u, grid)
    whole = params.epsilon * params.mu * h * q_total(h, state.u, ux, bathymetry, params, grid)
    split = q1_apply(h, state.u, ux, bathymetry, params, grid) + q2_eval(
        h, state.u, bathymetry, params, grid
    )
    return float(np.linalg.norm(split - whole) / np.linalg.norm(whole))


def formulation_gap(state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid) -> float:
    """Relative gap between the direct and the condensed tendency at one state."""
    dz1, du1 = nonlinear_rhs(state, bathymetry, params, grid)
    dz2, du2 = condensed_rhs(state, bathymetry, params, grid)
    scale = np.linalg.norm(np.concatenate([dz1, du1]))
    return float(np.linalg.norm(np.concatenate([dz1 - dz2, du1 - du2])) / scale)


def mollifier_adjoint_defect(f: np.ndarray, g: np.ndarray, mol: Mollifier, grid: Grid) -> float:
    """|(J f, g) - (f, J g)| / (f, f) for the mollifier J."""
    adj = abs(
        inner_product(mollify(f, mol, grid), g, grid)
        - inner_product(f, mollify(g, mol, grid), grid)
    )
    return adj / abs(inner_product(f, f, grid))


def mollifier_commutation(f: np.ndarray, mol: Mollifier, grid: Grid, s: float = 2.0) -> float:
    """|Lambda^s J f - J Lambda^s f| / |Lambda^s J f| for the mollifier J."""
    a = lambda_s(mollify(f, mol, grid), s, grid)
    b = mollify(lambda_s(f, s, grid), mol, grid)
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def equivalence_spreads(records: list[EquivalenceRecord]) -> tuple[float, float]:
    """Max/min spread of the upper and of the lower E^s / X^s ratio across a sweep."""
    hi = max(r.ratio_max for r in records) / min(r.ratio_max for r in records)
    lo = max(r.ratio_min for r in records) / min(r.ratio_min for r in records)
    return hi, lo


def energy_drift(history: list[DiagnosticRecord]) -> float:
    """Largest energy deviation from the first record, relative to it."""
    e0 = history[0].energy
    return max(abs(r.energy - e0) for r in history) / e0


def mass_drift(history: list[DiagnosticRecord]) -> float:
    """Largest absolute mass deviation from the first record."""
    m0 = history[0].mass
    return max(abs(r.mass - m0) for r in history)
