"""Per-sample measurements behind the property checks.

`gn1d verify` and the acceptance suite draw their own samples and apply
their own bounds; each function here measures one sample, or one run
history, so both report the same quantity computed the same way.  The
one exception is the inverse-bound sweep, which draws its trial fields
from the seed its caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, compute_depth
from .diagnostics import SWEEP_H0, DiagnosticRecord, EquivalenceRecord
from .gn_rhs import condensed_rhs, nonlinear_rhs, q1_apply, q2_eval, q_total
from .grid_ops import d1_fd, d1_spectral, hs_norm, inner_product, lambda_s
from .linearized import Mollifier, mollify
from .t_operator import TOperator, apply_T, assemble_T, solve_T, solve_T_dx


def symmetry_defect(op: TOperator) -> float:
    """Largest entry of |T - T^T| for the assembled matrix (0 by construction)."""
    dense = op.banded.to_dense()
    return float(np.max(np.abs(dense - dense.T)))


def solve_residual(op: TOperator, f: np.ndarray) -> float:
    """|T w - f| / |f| for w = solve_T(op, f)."""
    w = solve_T(op, f)
    return float(np.linalg.norm(apply_T(op, w) - f) / np.linalg.norm(f))


def round_trip(op: TOperator, g: np.ndarray) -> float:
    """|T^{-1} T g - g| / |g|."""
    return float(np.linalg.norm(solve_T(op, apply_T(op, g)) - g) / np.linalg.norm(g))


def coercivity_bound(params: Parameters) -> float:
    """Guaranteed lower bound h0 / max(1, 18/h0^2) on the quadratic form."""
    return params.h0 / max(1.0, 18.0 / params.h0**2)


def rayleigh_ratio(op: TOperator, v: np.ndarray) -> float:
    """(T v, v) / (|v|^2 + mu |D v|^2), bounded below by coercivity_bound(params)."""
    grid, mu = op.grid, op.params.mu
    dv = d1_fd(grid).apply(v)
    return inner_product(apply_T(op, v), v, grid) / (
        inner_product(v, v, grid) + mu * inner_product(dv, dv, grid)
    )


@dataclass(frozen=True)
class SweepRecord:
    state_index: int
    epsilon: float
    mu: float
    r1: float
    r2: float


def _sweep_field(rng: np.random.Generator, grid: Grid, s: float) -> np.ndarray:
    """Random smooth field with an H^s-flat spectrum up to ~0.45 k_max.

    The broad spectral support matters: it keeps the measured inverse
    bounds sensitive to the mu-dependent part of the operator even at
    tiny mu, where narrow-band fields would report a vanishing constant.
    """
    k = grid.wavenumbers()
    kc = 0.45 * k.max()
    coeff = np.fft.rfft(rng.standard_normal(grid.n))
    coeff *= (1.0 + k * k) ** (-0.5 * s) * np.exp(-((k / kc) ** 2))
    return np.fft.irfft(coeff, grid.n)


def inverse_bound_sweep(
    states: list[tuple[np.ndarray, Bathymetry]],
    params_grid: list[tuple[float, float]],
    s: float,
    grid: Grid,
    trials: int = 4,
    seed: int = 0,
) -> list[SweepRecord]:
    """Measure the two inverse-operator constants over a parameter sweep.

    r1 bounds |T^{-1} f| in the dispersive Sobolev pair, r2 bounds
    sqrt(mu) |T^{-1} D g|; both are reported relative to |.|_{H^s} of
    the data, maximized over random trial fields.
    """
    rng = np.random.default_rng(seed)
    fs = [_sweep_field(rng, grid, s) for _ in range(trials)]
    gs = [_sweep_field(rng, grid, s) for _ in range(trials)]
    records = []
    for idx, (h, bathymetry) in enumerate(states):
        for eps, mu in params_grid:
            params = Parameters(epsilon=eps, mu=mu, h0=SWEEP_H0)
            op = assemble_T(h, bathymetry, params, grid)
            r1 = r2 = 0.0
            for f, g in zip(fs, gs):
                w = solve_T(op, f)
                wx = d1_spectral(w, grid)
                r1 = max(
                    r1,
                    (hs_norm(w, s, grid) + np.sqrt(mu) * hs_norm(wx, s, grid))
                    / hs_norm(f, s, grid),
                )
                v = solve_T_dx(op, g)
                r2 = max(r2, np.sqrt(mu) * hs_norm(v, s, grid) / hs_norm(g, s, grid))
            records.append(SweepRecord(idx, eps, mu, r1, r2))
    return records


def sweep_spreads(records: list[SweepRecord]) -> tuple[float, float]:
    """Worst max/min ratio of each constant across mu, per (state, eps)."""
    groups: dict[tuple[int, float], list[SweepRecord]] = {}
    for rec in records:
        groups.setdefault((rec.state_index, rec.epsilon), []).append(rec)
    worst1 = worst2 = 1.0
    for recs in groups.values():
        r1s = [r.r1 for r in recs]
        r2s = [r.r2 for r in recs]
        worst1 = max(worst1, max(r1s) / min(r1s))
        worst2 = max(worst2, max(r2s) / min(r2s))
    return worst1, worst2


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
