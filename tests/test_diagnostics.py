"""Conserved quantities, norms, and the norm-equivalence report."""

import numpy as np
import pytest

from gn1d import Bathymetry, Grid, Parameters, State, compute_depth
from gn1d.diagnostics import (
    SWEEP_EPSILONS,
    SWEEP_MUS,
    conserved_energy,
    equivalence_report,
    es_norm,
    mass,
    record_for,
    xs_norm,
)
from gn1d.grid_ops import inner_product, lambda_s
from gn1d.t_operator import apply_T, assemble_T

from helpers import bumpy_bathymetry, fd_symbol, random_state


def test_mass_is_the_surface_integral():
    grid = Grid(32, 5.0)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(grid.n)
    zu = np.array((z, np.zeros(grid.n)))
    assert mass(zu, grid) == pytest.approx(grid.dx * z.sum(), rel=1e-15)


def test_dispersive_norm_on_single_modes():
    """|cos 3x|_{H^2} = 10 sqrt(pi); the velocity adds its derivative term."""
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    x = grid.nodes()
    only_surface = np.array((np.cos(3.0 * x), np.zeros(grid.n)))
    assert xs_norm(only_surface, params, grid, s=2.0) == pytest.approx(10.0 * np.sqrt(np.pi), rel=1e-13)

    only_velocity = np.array((np.zeros(grid.n), np.sin(2.0 * x)))
    # |u|_{H^2}^2 = 25 pi, |u_x|_{H^2}^2 = 4 * 25 pi
    want = np.sqrt(25.0 * np.pi + params.mu * 100.0 * np.pi)
    assert xs_norm(only_velocity, params, grid, s=2.0) == pytest.approx(want, rel=1e-13)


def test_conserved_energy_flat_state_oracle():
    """Unit depth turns the velocity form into pi (1 + mu sigma(k)^2 / 3)."""
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.8, h0=0.5)
    x = grid.nodes()
    k = 4.0
    zu = np.array((np.zeros(grid.n), np.cos(k * x)))
    sigma = fd_symbol(np.array(k), grid.dx)
    want = np.pi * (1.0 + params.mu * sigma**2 / 3.0)
    flat = Bathymetry.flat(grid)
    h = compute_depth(zu[0], flat, params)
    assert conserved_energy(zu, h, flat, params, grid) == pytest.approx(want, rel=1e-13)


def test_energy_matches_assembled_quadratic_form():
    """The O(n) factored evaluation equals (T u, u) through the matrix."""
    grid = Grid(96, 2.0 * np.pi)
    params = Parameters(0.4, 0.7, h0=0.3)
    bath = bumpy_bathymetry(grid)
    for seed in range(5):
        zu = random_state(grid, seed, kc=15)
        zeta, u = zu
        h = 1.0 + params.epsilon * (zeta - bath.b)
        op = assemble_T(h, bath, params, grid)
        direct = inner_product(zeta, zeta, grid) + inner_product(apply_T(op, u), u, grid)
        fast = conserved_energy(zu, h, bath, params, grid)
        assert abs(fast - direct) <= 1e-13 * abs(direct)


def test_energy_norm_matches_assembled_form():
    grid = Grid(96, 2.0 * np.pi)
    params = Parameters(0.4, 0.7, h0=0.3)
    bath = bumpy_bathymetry(grid)
    st = random_state(grid, 7, kc=15)
    ref = random_state(grid, 8, kc=15)
    h = 1.0 + params.epsilon * (ref[0] - bath.b)
    op = assemble_T(h, bath, params, grid)
    lz = lambda_s(st[0], 2.0, grid)
    lu = lambda_s(st[1], 2.0, grid)
    direct = np.sqrt(
        inner_product(lz, lz, grid) + inner_product(apply_T(op, lu), lu, grid)
    )
    assert es_norm(st, h, bath, params, grid, s=2.0) == pytest.approx(direct, rel=1e-13)


def test_record_gathers_all_diagnostics():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    zu = random_state(grid, 9, kc=10)
    state = State(zu, time=1.25)
    rec = record_for(state, compute_depth(state.zeta, bath, params), bath, params, grid, s=2.0)
    assert rec.t == 1.25
    h = 1.0 + params.epsilon * (zu[0] - bath.b)
    assert rec.energy == conserved_energy(zu, h, bath, params, grid)
    assert rec.mass == mass(zu, grid)
    assert rec.min_h == np.min(h)
    assert rec.xs == xs_norm(zu, params, grid, s=2.0)
    assert rec.es == es_norm(zu, h, bath, params, grid, s=2.0)


def test_norm_equivalence_bounded_over_parameter_sweep():
    grid = Grid(128, 2.0 * np.pi)
    bath = bumpy_bathymetry(grid)
    pairs = []
    for seed in range(6):
        pairs.append((random_state(grid, seed, kc=20), random_state(grid, seed + 500, kc=20)))
    report = equivalence_report(pairs, bath, grid)
    assert report.shape == (len(SWEEP_EPSILONS), len(SWEEP_MUS), 2)
    hi = report[..., 0].max()
    lo = report[..., 1].min()
    assert 0.0 < lo <= hi
    assert hi / lo <= 10.0
