"""Nonlinear tendency, its condensed quasilinear form, and the source split."""

import numpy as np

from gn1d import Bathymetry, Grid, Parameters, compute_depth
from gn1d.gn_rhs import (
    FrozenState,
    coefficient_fields,
    condensed_rhs,
    condensed_tendency,
    eval_B,
    nonlinear_rhs,
    q1_apply,
    q_total,
)
from gn1d.grid_ops import apply_symbol, d1_spectral, l2_norm
from gn1d.linearized import cutoff_symbol, mollify
from gn1d.t_operator import assemble_T, solve_T

from helpers import bumpy_bathymetry, fd_symbol, random_state


def test_dispersive_source_flat_bottom_oracle():
    """With unit depth and u = sin x the source is -(2/3) sin 2x by hand."""
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    x = grid.nodes()
    u = np.sin(x)
    q = q_total(np.ones(grid.n), u, d1_spectral(u, grid), Bathymetry.flat(grid), params, grid)
    assert np.allclose(q, -(2.0 / 3.0) * np.sin(2.0 * x), atol=1e-12)


def test_remainder_source_is_quadratic_in_velocity():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    zeta, u = random_state(grid, 17, kc=10)
    h = 1.0 + params.epsilon * (zeta - bath.b)
    assert np.array_equal(
        coefficient_fields(h, 2.0 * u, bath, params, grid).q2,
        4.0 * coefficient_fields(h, u, bath, params, grid).q2,
    )


def test_first_order_source_is_linear_in_its_argument():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    zeta, u = random_state(grid, 23, kc=10)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.n)
    g = rng.standard_normal(grid.n)
    h = 1.0 + params.epsilon * (zeta - bath.b)
    fields = coefficient_fields(h, u, bath, params, grid)
    assert np.array_equal(
        q1_apply(fields, 2.0 * f, params, grid), 2.0 * q1_apply(fields, f, params, grid)
    )
    lhs = q1_apply(fields, f + g, params, grid)
    rhs = q1_apply(fields, f, params, grid) + q1_apply(fields, g, params, grid)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_rest_state_is_an_equilibrium_over_any_bottom():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.7, 0.6, h0=0.3)
    for bath in (Bathymetry.flat(grid), bumpy_bathymetry(grid)):
        dz, du = nonlinear_rhs(np.zeros((2, grid.n)), bath, params, grid)
        assert not dz.any()
        assert not du.any()


def test_small_amplitude_velocity_response():
    """As eps -> 0 the momentum tendency reduces to the filtered gradient."""
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(1e-8, 0.5, h0=0.5)
    x = grid.nodes()
    k = 3.0
    zu = np.array((np.cos(k * x), np.zeros(grid.n)))
    _, du = nonlinear_rhs(zu, Bathymetry.flat(grid), params, grid)
    sigma = fd_symbol(np.array(k), grid.dx)
    want = k * np.sin(k * x) / (1.0 + params.mu * sigma**2 / 3.0)
    assert np.max(np.abs(du - want)) <= 1e-7


def test_mass_flux_form_of_surface_tendency():
    grid = Grid(128, 2.0 * np.pi)
    params = Parameters(0.4, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    zu = random_state(grid, 31, kc=12)
    h = 1.0 + params.epsilon * (zu[0] - bath.b)
    dz, _ = nonlinear_rhs(zu, bath, params, grid)
    assert np.allclose(dz, -d1_spectral(h * zu[1], grid), atol=1e-13)


def test_condensed_form_matches_direct_tendency():
    """Both evaluations of the same dynamics agree to rounding on
    band-limited states (the product rule is exact below the alias line)."""
    grid = Grid(256, 2.0 * np.pi)
    params = Parameters(0.3, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    for seed in range(8):
        zu = random_state(grid, seed, kc=24)
        direct = nonlinear_rhs(zu, bath, params, grid)
        cond = condensed_rhs(zu, bath, params, grid)
        scale = l2_norm(direct[0], grid) + l2_norm(direct[1], grid)
        err = l2_norm(direct[0] - cond[0], grid) + l2_norm(direct[1] - cond[1], grid)
        assert err <= 1e-12 * scale


def test_source_split_reassembles_the_dispersive_source():
    grid = Grid(256, 2.0 * np.pi)
    params = Parameters(0.4, 0.6, h0=0.3)
    bath = bumpy_bathymetry(grid)
    for seed in range(8):
        zeta, u = random_state(grid, seed + 100, kc=24)
        h = 1.0 + params.epsilon * (zeta - bath.b)
        ux = d1_spectral(u, grid)
        whole = params.epsilon * params.mu * h * q_total(h, u, ux, bath, params, grid)
        fields = coefficient_fields(h, u, bath, params, grid)
        split = q1_apply(fields, ux, params, grid) + fields.q2
        assert l2_norm(whole - split, grid) <= 1e-12 * l2_norm(whole, grid)


def _frozen(zu, bath, params, grid):
    h = compute_depth(zu[0], bath, params)
    return FrozenState(
        assemble_T(h, bath, params, grid), coefficient_fields(h, zu[1], bath, params, grid)
    )


def test_zero_order_source_vanishes_on_flat_bottom():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    st = random_state(grid, 51, kc=10)
    flat = Bathymetry.flat(grid)
    b1, b2 = eval_B(_frozen(st, flat, params, grid))
    assert not b1.any()
    assert not b2.any()


def test_zero_order_source_slope_term():
    """The surface component of the source is -eps * b_x * u."""
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.6, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    st = random_state(grid, 61, kc=10)
    b1, _ = eval_B(_frozen(st, bath, params, grid))
    assert np.allclose(b1, -params.epsilon * bath.b_x * st[1], atol=1e-15)


def test_stacked_coefficient_fields_match_the_one_row_call_bit_for_bit():
    grid = Grid(128, 2.0 * np.pi)
    params = Parameters(0.4, 0.6, h0=0.3)
    bath = bumpy_bathymetry(grid)
    states = [random_state(grid, seed + 300, kc=24) for seed in range(5)]
    hs = compute_depth(np.stack([st[0] for st in states]), bath, params)
    us = np.stack([st[1] for st in states])
    stacked = coefficient_fields(hs, us, bath, params, grid)
    for i, (h, u) in enumerate(zip(hs, us)):
        one = coefficient_fields(h, u, bath, params, grid)
        for name, a, b in zip(one._fields, stacked.row(i), one):
            assert np.array_equal(a, b), name


def _tendency_by_the_source_split(op, bath, coeff_u, zeta, u, cutoff):
    """The condensed tendency composed from q1_apply and the q2 field,
    each checked against its formula written out in full."""
    grid, params, h = op.grid, op.params, op.h
    eps, mu = params.epsilon, params.mu
    bx, bxx = bath.b_x, bath.b_xx

    def cut(f):
        return f if cutoff is None else apply_symbol(f, cutoff, grid)

    def q1(f):
        ux = d1_spectral(coeff_u, grid)
        written = (
            (2.0 / 3.0) * eps * mu * d1_spectral(h**3 * ux * f, grid)
            + eps**2 * mu * h**2 * bx * ux * f
            + eps**2 * mu * h**2 * bxx * coeff_u * f
        )
        got = q1_apply(coefficient_fields(h, coeff_u, bath, params, grid), f, params, grid)
        assert np.array_equal(got, written)
        return got

    written_q2 = eps**3 * mu * h * bxx * bx * coeff_u**2 + 0.5 * eps**2 * mu * d1_spectral(
        h**2 * bxx, grid
    ) * coeff_u**2
    q2 = coefficient_fields(h, coeff_u, bath, params, grid).q2
    assert np.array_equal(q2, written_q2)

    v1, v2 = cut(d1_spectral(np.stack((zeta, u)), grid))
    a1 = eps * coeff_u * v1 + h * v2
    a2 = solve_T(op, h * v1 + q1(v2)) + eps * coeff_u * v2
    b1 = -eps * bx * coeff_u
    b2 = solve_T(op, q2)
    return -(cut(a1) + b1), -(cut(a2) + b2)


def test_frozen_state_tendency_matches_the_source_split_bit_for_bit():
    grid = Grid(128, 2.0 * np.pi)
    params = Parameters(0.4, 0.6, h0=0.3)
    bath = bumpy_bathymetry(grid)
    coeff = random_state(grid, 401, kc=24)
    stage = random_state(grid, 402, kc=40)
    op = assemble_T(compute_depth(coeff[0], bath, params), bath, params, grid)
    # each field is the left operand the written-out formulas compute
    eps, mu, h, u = params.epsilon, params.mu, op.h, coeff[1]
    ux = d1_spectral(u, grid)
    frozen = FrozenState(op, coefficient_fields(h, u, bath, params, grid))
    fields = frozen.fields
    assert np.array_equal(fields.eps_u, eps * u)
    assert np.array_equal(fields.h3_ux, h**3 * ux)
    assert np.array_equal(fields.q1_bx, eps**2 * mu * h**2 * bath.b_x * ux)
    assert np.array_equal(fields.q1_bxx, eps**2 * mu * h**2 * bath.b_xx * u)
    assert np.array_equal(fields.b1, -eps * bath.b_x * u)
    mol = cutoff_symbol(0.1, grid)
    for cutoff, cut in ((None, None), (mol, lambda f: mollify(f, mol, grid))):
        got = condensed_tendency(frozen, stage, cut)
        want = _tendency_by_the_source_split(op, bath, u, *stage, cutoff)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
