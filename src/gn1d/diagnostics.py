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
    state: State, h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> float:
    """|zeta|_2^2 + (T u, u), the invariant of the nonlinear evolution; h is the state's depth."""
    return inner_product(state.zeta, state.zeta, grid) + weighted_velocity_form(
        state.u, h, bathymetry, params, grid
    )


def xs_norm(state: State, params: Parameters, grid: Grid, s: float = 2.0) -> float:
    """Dispersive Sobolev norm: |zeta|_{H^s}^2 + |u|_{H^s}^2 + mu |u_x|_{H^s}^2."""
    ux = d1_spectral(state.u, grid)
    lz, lu, lux = lambda_s(np.array((state.zeta, state.u, ux)), s, grid)
    return float(
        np.sqrt(
            l2_norm(lz, grid) ** 2
            + l2_norm(lu, grid) ** 2
            + params.mu * l2_norm(lux, grid) ** 2
        )
    )


def es_norm(
    state: State,
    h_ref: np.ndarray,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
    s: float = 2.0,
) -> float:
    """Energy norm with operator weight frozen at the reference depth h_ref.

    E^s(U)^2 = |Lambda^s zeta|_2^2 + (T[h_ref] Lambda^s u, Lambda^s u).
    """
    lz, lu = lambda_s(np.array((state.zeta, state.u)), s, grid)
    return float(
        np.sqrt(
            inner_product(lz, lz, grid)
            + weighted_velocity_form(lu, h_ref, bathymetry, params, grid)
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
    h = compute_depth(state.zeta, bathymetry, params)
    return DiagnosticRecord(
        t=state.time,
        energy=conserved_energy(state, h, bathymetry, params, grid),
        mass=mass(state, grid),
        min_h=float(h.min()),
        xs=xs_norm(state, params, grid, s),
        es=es_norm(state, h, bathymetry, params, grid, s),
    )


# depth floor of the (eps, mu) sweeps: equivalence_report, checks.inverse_bound_spreads
SWEEP_H0 = 0.05
# Sobolev index of the sweeps and of checks.mollifier_commutation
SWEEP_S = 2.0
# the (eps, mu) grid of both sweeps; their bounds read the spread across mu
SWEEP_EPSILONS = (0.1, 1.0)
SWEEP_MUS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def equivalence_report(
    states: list[tuple[State, State]], bathymetry: Bathymetry, grid: Grid
) -> np.ndarray:
    """Max and min of E^s / X^s over (state, reference) pairs at each (eps, mu).

    Returns an array of shape (len(SWEEP_EPSILONS), len(SWEEP_MUS), 2)
    whose last axis holds (max, min).  Both directions of the norm
    equivalence are captured by them; across an admissible parameter
    sweep each should vary by a bounded factor.
    """
    out = np.empty((len(SWEEP_EPSILONS), len(SWEEP_MUS), 2))
    for i, eps in enumerate(SWEEP_EPSILONS):
        for j, mu in enumerate(SWEEP_MUS):
            params = Parameters(epsilon=eps, mu=mu, h0=SWEEP_H0)
            hi, lo = -np.inf, np.inf
            for state, ref in states:
                h_ref = compute_depth(ref.zeta, bathymetry, params)
                ratio = es_norm(state, h_ref, bathymetry, params, grid, SWEEP_S) / xs_norm(
                    state, params, grid, SWEEP_S
                )
                hi, lo = max(hi, ratio), min(lo, ratio)
            out[i, j] = hi, lo
    return out
