"""Right-hand sides: the nonlinear evolution and its condensed quasilinear form.

The evolution system is

    zeta_t + (h u)_x = 0,
    T[ u_t + eps u u_x ] + h zeta_x + eps mu h Q(u) = 0,

with h = 1 + eps (zeta - b) and Q the quadratic dispersive source.  The
condensed form rewrites the same dynamics as U_t + A[U] U_x + B(U) = 0,
splitting eps mu h Q(u) = Q1[U] u_x + q2(U) so that only first-order
derivatives of the unknowns appear; both forms are evaluated here and
must agree to rounding on band-limited fields.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, compute_depth
from .grid_ops import apply_symbol, d1_spectral
from .t_operator import TOperator, assemble_T, solve_T


class Tendency(NamedTuple):
    dzeta: np.ndarray
    du: np.ndarray


def q_total(
    h: np.ndarray,
    u: np.ndarray,
    ux: np.ndarray,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
) -> np.ndarray:
    """The dispersive source Q[h, eps b](u) (unscaled), given ux = d1_spectral(u)."""
    eps = params.epsilon
    bx, bxx = bathymetry.b_x, bathymetry.b_xx
    d_cubic, d_bottom = d1_spectral(np.stack((h**3 * ux**2, h**2 * u**2 * bxx)), grid)
    return (
        (2.0 / (3.0 * h)) * d_cubic
        + eps * h * ux**2 * bx
        + (eps / (2.0 * h)) * d_bottom
        + eps**2 * u**2 * bxx * bx
    )


def q1_apply(
    h: np.ndarray,
    u: np.ndarray,
    f: np.ndarray,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
) -> np.ndarray:
    """First-order part of the dispersive source at depth h and velocity u, applied to f."""
    eps, mu = params.epsilon, params.mu
    bx, bxx = bathymetry.b_x, bathymetry.b_xx
    ux = d1_spectral(u, grid)
    return (
        (2.0 / 3.0) * eps * mu * d1_spectral(h**3 * ux * f, grid)
        + eps**2 * mu * h**2 * bx * ux * f
        + eps**2 * mu * h**2 * bxx * u * f
    )


def q2_eval(
    h: np.ndarray, u: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> np.ndarray:
    """Zero-order remainder of the dispersive source at depth h and velocity u."""
    eps, mu = params.epsilon, params.mu
    bx, bxx = bathymetry.b_x, bathymetry.b_xx
    return eps**3 * mu * h * bxx * bx * u**2 + 0.5 * eps**2 * mu * d1_spectral(
        h**2 * bxx, grid
    ) * u**2


def nonlinear_rhs(
    state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> Tendency:
    """Tendency of the full nonlinear system at one state.

    Assembles and factorizes the dispersive operator for the current
    depth; propagates DepthError / FactorizationError / NonFiniteError to
    the caller, which treats them as blow-up events.
    """
    eps, mu = params.epsilon, params.mu
    h = compute_depth(state.zeta, bathymetry, params)
    op = assemble_T(h, bathymetry, params, grid)
    hux, zx, ux = d1_spectral(np.stack((h * state.u, state.zeta, state.u)), grid)
    q = q_total(h, state.u, ux, bathymetry, params, grid)
    du = -eps * state.u * ux - solve_T(op, h * zx + eps * mu * h * q)
    return Tendency(-hux, du)


def apply_A(
    op: TOperator, u: np.ndarray, fields: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Advection-structure map of the condensed form at the coefficient state
    (op, u), applied to (v1, v2); op is T at that state and carries its depth."""
    eps, h = op.params.epsilon, op.h
    v1, v2 = fields
    a1 = eps * u * v1 + h * v2
    q1 = q1_apply(h, u, v2, op.bathymetry, op.params, op.grid)
    a2 = solve_T(op, h * v1 + q1) + eps * u * v2
    return a1, a2


def eval_B(op: TOperator, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order source of the condensed form at the coefficient state (op, u)."""
    b1 = -op.params.epsilon * op.bathymetry.b_x * u
    b2 = solve_T(op, q2_eval(op.h, u, op.bathymetry, op.params, op.grid))
    return b1, b2


def condensed_tendency(
    op: TOperator,
    coeff_u: np.ndarray,
    zeta: np.ndarray,
    u: np.ndarray,
    cutoff: np.ndarray | None = None,
) -> Tendency:
    """-(J A[coeff] J U_x + B(coeff)) for U = (zeta, u) at the coefficient
    state coeff = (op, coeff_u), with op = T at coeff.

    J is the Fourier multiplier cutoff (the identity when None).  At
    coeff = U without cutoff this is the condensed form of the nonlinear
    tendency; otherwise it is the tendency of the linearized system.
    """
    grid = op.grid

    def cut(f):
        return f if cutoff is None else apply_symbol(f, cutoff, grid)

    v = cut(d1_spectral(np.stack((zeta, u)), grid))
    a1, a2 = apply_A(op, coeff_u, v)
    b1, b2 = eval_B(op, coeff_u)
    return Tendency(-(cut(a1) + b1), -(cut(a2) + b2))


def condensed_rhs(
    state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> Tendency:
    """Tendency evaluated through the condensed quasilinear form."""
    op = assemble_T(compute_depth(state.zeta, bathymetry, params), bathymetry, params, grid)
    return condensed_tendency(op, state.u, state.zeta, state.u)
