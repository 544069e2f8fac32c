"""Conserved quantities and the norms used by monitors and analysis.

The energy, mass and norms take a state as the (2, n) stack zu of
(zeta, u).  The exactly conserved energy pairs the surface with the
operator-weighted velocity; it is evaluated through the first-order
factors, never through an assembled matrix, so it costs O(n) per record.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, compute_depth, quiet_overflow
from .grid_ops import d1_spectral, inner_product, l2_norm, lambda_s
from .t_operator import build_factor_ops


def mass(zu: np.ndarray, grid: Grid) -> float:
    """Integral of the surface elevation."""
    return float(grid.dx * zu[0].sum())


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
    zu: np.ndarray, h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> float:
    """|zeta|_2^2 + (T[h] u, u), the invariant of the nonlinear evolution when h is zu's depth."""
    zeta, u = zu
    return inner_product(zeta, zeta, grid) + weighted_velocity_form(u, h, bathymetry, params, grid)


@quiet_overflow
def xs_norm(zu: np.ndarray, params: Parameters, grid: Grid, s: float = 2.0) -> float:
    """Dispersive Sobolev norm: |zeta|_{H^s}^2 + |u|_{H^s}^2 + mu |u_x|_{H^s}^2."""
    lz, lu, lux = lambda_s(np.array((*zu, d1_spectral(zu[1], grid))), s, grid)
    return float(np.sqrt(
        l2_norm(lz, grid) ** 2 + l2_norm(lu, grid) ** 2 + params.mu * l2_norm(lux, grid) ** 2
    ))


@quiet_overflow
def es_norm(
    zu: np.ndarray, h_ref: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid,
    s: float = 2.0,
) -> float:
    """Energy norm with operator weight frozen at the reference depth h_ref,
    the conserved energy of Lambda^s zu at h_ref:

    E^s(U)^2 = |Lambda^s zeta|_2^2 + (T[h_ref] Lambda^s u, Lambda^s u).
    """
    return float(np.sqrt(conserved_energy(lambda_s(zu, s, grid), h_ref, bathymetry, params, grid)))


class DiagnosticRecord(NamedTuple):
    """The diagnostics of one state, a row of timeseries.dat in its column order."""

    t: float
    energy: float
    mass: float
    min_h: float
    xs: float
    es: float


def record_for(
    state: State, h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid,
    s: float = 2.0,
) -> DiagnosticRecord:
    """The diagnostics of state, whose depth compute_depth gave as h."""
    return DiagnosticRecord(
        t=state.time,
        energy=conserved_energy(state.zu, h, bathymetry, params, grid),
        mass=mass(state.zu, grid),
        min_h=float(h.min()),
        xs=xs_norm(state.zu, params, grid, s),
        es=es_norm(state.zu, h, bathymetry, params, grid, s),
    )


# depth floor of the (eps, mu) sweeps: equivalence_report, checks.inverse_bound_spreads
SWEEP_H0 = 0.05
# Sobolev index of the sweeps and of checks.mollifier_commutation
SWEEP_S = 2.0
# the (eps, mu) grid of both sweeps; their bounds read the spread across mu
SWEEP_EPSILONS = (0.1, 1.0)
SWEEP_MUS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def equivalence_report(
    pairs: list[tuple[np.ndarray, np.ndarray]], bathymetry: Bathymetry, grid: Grid
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
            for zu, ref in pairs:
                h_ref = compute_depth(ref[0], bathymetry, params)
                ratio = es_norm(zu, h_ref, bathymetry, params, grid, SWEEP_S) / xs_norm(
                    zu, params, grid, SWEEP_S
                )
                hi, lo = max(hi, ratio), min(lo, ratio)
            out[i, j] = hi, lo
    return out
