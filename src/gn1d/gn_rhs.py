"""Right-hand sides: the nonlinear evolution and its condensed quasilinear form.

The evolution system is

    zeta_t + (h u)_x = 0,
    T[ u_t + eps u u_x ] + h zeta_x + eps mu h Q(u) = 0,

with h = 1 + eps (zeta - b) and Q the quadratic dispersive source.  The
condensed form rewrites the same dynamics as U_t + A[U] U_x + B(U) = 0,
splitting eps mu h Q(u) = Q1[U] u_x + q2(U) so that only first-order
derivatives of the unknowns appear.  Both forms take the state U as the
(2, n) stack zu of (zeta, u), return its tendency as such a stack, and
must agree to rounding on band-limited fields.  What the condensed form
needs of a frozen coefficient state alone, coefficient_fields computes
once, for one state or a stack, so a linear stage does only stage work.
frozen_states is the one place a coefficient state is frozen: it turns a
stack of states into their FrozenStates, of which condensed_rhs freezes
one row and the linear march a stream.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .core import Bathymetry, Grid, Parameters, compute_depth
from .grid_ops import d1_spectral
from .t_operator import TOperator, assemble_T, solve_T


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
    ux2, u2 = ux**2, u**2
    d_cubic, d_bottom = d1_spectral(np.array((h**3 * ux2, h**2 * u2 * bxx)), grid)
    return (
        (2.0 / (3.0 * h)) * d_cubic
        + eps * h * ux2 * bx
        + (eps / (2.0 * h)) * d_bottom
        + eps**2 * u2 * bxx * bx
    )


class CoefficientFields(NamedTuple):
    """Fields of the condensed form that depend only on a coefficient state
    (h, u): the left operand of each product with a stage field, and the
    whole zero-order source.  Each is one row, or a (k, n) stack."""

    eps_u: np.ndarray  # eps u
    h3_ux: np.ndarray  # h^3 u_x
    q1_bx: np.ndarray  # eps^2 mu h^2 b_x u_x
    q1_bxx: np.ndarray  # eps^2 mu h^2 b_xx u
    q2: np.ndarray  # the zero-order remainder of the dispersive source
    b1: np.ndarray  # -eps b_x u

    def row(self, i: int) -> "CoefficientFields":
        return CoefficientFields(*(f[i] for f in self))


def coefficient_fields(
    h: np.ndarray, u: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> CoefficientFields:
    """The coefficient-only fields at depth h and velocity u, one state or a
    (k, n) stack of them; one d1_spectral call differentiates u and h^2 b_xx.
    Each row of a stacked result is bit-identical to the one-row call."""
    eps, mu = params.epsilon, params.mu
    bx, bxx = bathymetry.b_x, bathymetry.b_xx
    ux, d_bottom = d1_spectral(np.array((u, h**2 * bxx)), grid)
    return CoefficientFields(
        eps_u=eps * u,
        h3_ux=h**3 * ux,
        q1_bx=eps**2 * mu * h**2 * bx * ux,
        q1_bxx=eps**2 * mu * h**2 * bxx * u,
        q2=eps**3 * mu * h * bxx * bx * u**2 + 0.5 * eps**2 * mu * d_bottom * u**2,
        b1=-eps * bx * u,
    )


def q1_apply(
    fields: CoefficientFields, f: np.ndarray, params: Parameters, grid: Grid
) -> np.ndarray:
    """First-order part of the dispersive source at the state of fields, applied to f."""
    eps, mu = params.epsilon, params.mu
    return (
        (2.0 / 3.0) * eps * mu * d1_spectral(fields.h3_ux * f, grid)
        + fields.q1_bx * f
        + fields.q1_bxx * f
    )


def nonlinear_rhs(
    zu: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> np.ndarray:
    """The tendency of the full nonlinear system at the state zu, a (2, n) stack.

    Assembles and factorizes the dispersive operator for the current
    depth; propagates DepthError / FactorizationError / NonFiniteError to
    the caller, which treats them as blow-up events.
    """
    eps, mu = params.epsilon, params.mu
    zeta, u = zu
    h = compute_depth(zeta, bathymetry, params)
    op = assemble_T(h, bathymetry, params, grid)
    hux, zx, ux = d1_spectral(np.array((h * u, zeta, u)), grid)
    q = q_total(h, u, ux, bathymetry, params, grid)
    du = -eps * u * ux - solve_T(op, h * zx + eps * mu * h * q)
    return np.array((-hux, du))


class FrozenState(NamedTuple):
    """A frozen coefficient state of the condensed form: op is T at its
    depth (op.h), fields its coefficient_fields, one row each."""

    op: TOperator
    fields: CoefficientFields


def apply_A(coeff: FrozenState, v: np.ndarray) -> np.ndarray:
    """Advection-structure map of the condensed form at the coefficient
    state coeff, applied to the (2, n) stack v = (v1, v2), as a (2, n) stack."""
    op, fields = coeff
    v1, v2 = v
    a1 = fields.eps_u * v1 + op.h * v2
    a2 = solve_T(op, op.h * v1 + q1_apply(fields, v2, op.params, op.grid)) + fields.eps_u * v2
    return np.array((a1, a2))


def eval_B(coeff: FrozenState) -> np.ndarray:
    """Zero-order source of the condensed form at the coefficient state coeff,
    as a (2, n) stack."""
    return np.array((coeff.fields.b1, solve_T(coeff.op, coeff.fields.q2)))


def condensed_tendency(coeff: FrozenState, zu: np.ndarray, cut=None) -> np.ndarray:
    """-(J A[coeff] J U_x + B(coeff)) for the (2, n) stack U = zu at the
    frozen coefficient state coeff, as a (2, n) stack.

    J is the frequency cutoff that cut(f) applies (the identity when cut
    is None).  At coeff = U without cutoff this is the condensed form of
    the nonlinear tendency; otherwise it is the tendency of the
    linearized system.
    """
    cut = cut or (lambda f: f)
    return -(cut(apply_A(coeff, cut(d1_spectral(zu, coeff.op.grid)))) + eval_B(coeff))


def frozen_states(
    coeff: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> Iterator[FrozenState]:
    """Each row's FrozenState of the (k, 2, n) stack coeff of coefficient
    states, in order.  One depth and one coefficient_fields call serve the
    whole stack; a row's operator is assembled, which checks its depth, only
    when that row is reached, so an assembly error ends in the stage that
    needs it."""
    h = compute_depth(coeff[:, 0], bathymetry, params)
    fields = coefficient_fields(h, coeff[:, 1], bathymetry, params, grid)
    for i, h_i in enumerate(h):
        yield FrozenState(assemble_T(h_i, bathymetry, params, grid), fields.row(i))


def condensed_rhs(
    zu: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> np.ndarray:
    """The tendency at the state zu through the condensed form, a (2, n) stack."""
    return condensed_tendency(next(frozen_states(zu[None], bathymetry, params, grid)), zu)
