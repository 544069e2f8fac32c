"""Conserved quantities and the norms used by monitors and analysis.

The exactly conserved energy pairs the surface with the operator-weighted
velocity; it is evaluated through the first-order factors, never through
an assembled matrix, so it costs O(n) per record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, compute_depth
from .grid_ops import d1_spectral, inner_product, l2_norm, lambda_s
from .t_operator import build_factor_ops


def mass(state: State, grid: Grid) -> float:
    """Integral of the surface elevation."""
    return float(grid.dx * state.zeta.sum())


def weighted_velocity_form(
    w: np.ndarray, h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> float:
    """(T w, w) evaluated as (h w, w) + mu |sqrt(h) T1 w|^2 + mu |sqrt(h) T2 w|^2."""
    t1, t2_diag = build_factor_ops(h, bathymetry, params, grid)
    t1w = t1.apply(w)
    t2w = t2_diag * w
    return (
        inner_product(h * w, w, grid)
        + params.mu * inner_product(h * t1w, t1w, grid)
        + params.mu * inner_product(h * t2w, t2w, grid)
    )


def conserved_energy(
    state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> float:
    """|zeta|_2^2 + (T u, u), the invariant of the nonlinear evolution."""
    h = compute_depth(state, bathymetry, params)
    return inner_product(state.zeta, state.zeta, grid) + weighted_velocity_form(
        state.u, h, bathymetry, params, grid
    )


def xs_norm(state: State, params: Parameters, grid: Grid, s: float = 2.0) -> float:
    """Dispersive Sobolev norm: |zeta|_{H^s}^2 + |u|_{H^s}^2 + mu |u_x|_{H^s}^2."""
    ux = d1_spectral(state.u, grid)
    lz, lu, lux = lambda_s(np.stack((state.zeta, state.u, ux)), s, grid)
    return float(
        np.sqrt(
            l2_norm(lz, grid) ** 2
            + l2_norm(lu, grid) ** 2
            + params.mu * l2_norm(lux, grid) ** 2
        )
    )


def es_norm(
    state: State,
    ref: State,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
    s: float = 2.0,
) -> float:
    """Energy norm with operator weight frozen at the reference state.

    E^s(U)^2 = |Lambda^s zeta|_2^2 + (T[h_ref] Lambda^s u, Lambda^s u).
    """
    h = compute_depth(ref, bathymetry, params)
    lz, lu = lambda_s(np.stack((state.zeta, state.u)), s, grid)
    return float(
        np.sqrt(
            inner_product(lz, lz, grid)
            + weighted_velocity_form(lu, h, bathymetry, params, grid)
        )
    )


@dataclass(frozen=True)
class DiagnosticRecord:
    t: float
    energy: float
    mass: float
    min_h: float
    xs: float
    es: float


def record_for(
    state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid, s: float = 2.0
) -> DiagnosticRecord:
    return DiagnosticRecord(
        t=state.time,
        energy=conserved_energy(state, bathymetry, params, grid),
        mass=mass(state, grid),
        min_h=float(compute_depth(state, bathymetry, params).min()),
        xs=xs_norm(state, params, grid, s),
        es=es_norm(state, state, bathymetry, params, grid, s),
    )


# depth floor of the (eps, mu) sweeps: equivalence_report, checks.inverse_bound_sweep
SWEEP_H0 = 0.05


@dataclass(frozen=True)
class EquivalenceRecord:
    epsilon: float
    mu: float
    ratio_max: float
    ratio_min: float


def equivalence_report(
    states: list[tuple[State, State]],
    bathymetry: Bathymetry,
    params_grid: list[tuple[float, float]],
    grid: Grid,
    s: float = 2.0,
) -> list[EquivalenceRecord]:
    """Measure E^s / X^s over (state, reference) pairs for each (eps, mu).

    Both directions of the norm equivalence are captured by the max and
    min of the ratio; across an admissible parameter sweep each should
    vary by a bounded factor.
    """
    out = []
    for eps, mu in params_grid:
        params = Parameters(epsilon=eps, mu=mu, h0=SWEEP_H0)
        hi, lo = -np.inf, np.inf
        for state, ref in states:
            ratio = es_norm(state, ref, bathymetry, params, grid, s) / xs_norm(
                state, params, grid, s
            )
            hi, lo = max(hi, ratio), min(lo, ratio)
        out.append(EquivalenceRecord(eps, mu, hi, lo))
    return out
