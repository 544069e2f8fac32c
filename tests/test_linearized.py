"""Frequency cutoff, reference trajectories, linearized marching, iteration."""

import numpy as np
import pytest

from gn1d import (
    Bathymetry,
    DepthError,
    Grid,
    NonFiniteError,
    Parameters,
    State,
    gaussian_hump,
    solitary_wave,
)
from gn1d.diagnostics import xs_norm
from gn1d.gn_rhs import condensed_rhs, condensed_tendency
from gn1d.grid_ops import apply_symbol, fd_symbol, inner_product, lambda_s
from gn1d.linearized import (
    Mollifier,
    ReferenceTrajectory,
    _frozen_coefficients,
    cutoff_profile,
    mollify,
    picard_solve,
    solve_linear,
)
from gn1d.time_integrator import StepControl, run

from helpers import band_limited, bumpy_bathymetry, l2_diff, random_state


def test_cutoff_profile_plateaus_are_exact():
    r = np.array([0.0, 0.3, 1.0, 2.0, 2.5, 100.0])
    got = cutoff_profile(r)
    assert np.array_equal(got[:3], [1.0, 1.0, 1.0])
    assert np.array_equal(got[3:], [0.0, 0.0, 0.0])


def test_cutoff_profile_bridge_is_monotone_and_symmetric():
    r = np.linspace(1.0, 2.0, 101)
    got = cutoff_profile(r)
    assert np.all(np.diff(got) <= 0.0)
    assert cutoff_profile(np.array([1.5]))[0] == 0.5
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_cutoff_profile_accepts_negative_arguments():
    assert cutoff_profile(np.array([-0.5]))[0] == 1.0
    assert cutoff_profile(np.array([-3.0]))[0] == 0.0


def test_mollifier_requires_positive_scale():
    with pytest.raises(ValueError):
        Mollifier.for_grid(0.0, Grid(16, 1.0))


def test_mollifier_passband_is_the_identity():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    m = Mollifier.for_grid(0.2, grid)  # passes |k| <= 5 untouched
    f = np.cos(4.0 * x) - 0.3 * np.sin(2.0 * x)
    assert np.allclose(mollify(f, m, grid), f, atol=1e-13)
    assert m.symbol[0] == 1.0


def test_mollifier_kills_far_band():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    m = Mollifier.for_grid(0.5, grid)  # zero beyond |k| = 4
    assert np.allclose(mollify(np.cos(8.0 * x), m, grid), 0.0, atol=1e-14)


def test_mollifier_is_self_adjoint():
    grid = Grid(64, 2.0 * np.pi)
    m = Mollifier.for_grid(0.1, grid)
    rng = np.random.default_rng(14)
    for _ in range(5):
        f = rng.standard_normal(grid.n)
        g = rng.standard_normal(grid.n)
        lhs = inner_product(mollify(f, m, grid), g, grid)
        rhs = inner_product(f, mollify(g, m, grid), grid)
        assert abs(lhs - rhs) <= 1e-13 * (abs(lhs) + 1.0)


def test_mollifier_commutes_with_sobolev_weight():
    grid = Grid(64, 2.0 * np.pi)
    m = Mollifier.for_grid(0.1, grid)
    k = grid.wavenumbers()
    lam = (1.0 + k * k) ** 1.0
    rng = np.random.default_rng(15)
    f = rng.standard_normal(grid.n)
    # the fused symbols are identical floats, so one-shot application
    # is exactly order-independent
    assert np.array_equal(
        apply_symbol(f, m.symbol * lam, grid), apply_symbol(f, lam * m.symbol, grid)
    )
    ab = mollify(lambda_s(f, 2.0, grid), m, grid)
    ba = lambda_s(mollify(f, m, grid), 2.0, grid)
    assert np.max(np.abs(ab - ba)) <= 1e-13 * np.max(np.abs(ab))


def test_mollifier_keeps_sup_norm_controlled():
    grid = Grid(256, 2.0 * np.pi)
    x = grid.nodes()
    fields = [np.sign(np.sin(x)), 1.0 / np.cosh(4.0 * (x - np.pi)), band_limited(grid, 30, 3)]
    for delta in (0.05, 0.2, 0.5):
        m = Mollifier.for_grid(delta, grid)
        for f in fields:
            assert np.max(np.abs(mollify(f, m, grid))) <= 1.2 * np.max(np.abs(f))


def test_trajectory_validation():
    z = np.zeros((2, 8))
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([0.0]), z[:1], z[:1])
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([0.0, 0.0]), z, z)
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([1.0, 0.5]), z, z)
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([0.0, 1.0]), z, np.zeros((3, 8)))


def test_trajectory_interpolates_linearly():
    n = 8
    za = np.zeros(n)
    zb = np.ones(n)
    traj = ReferenceTrajectory(np.array([0.0, 2.0]), np.stack([za, zb]), np.stack([zb, za]))
    mid = traj.state_at(0.5)
    assert np.allclose(mid.zeta, 0.25, atol=1e-15)
    assert np.allclose(mid.u, 0.75, atol=1e-15)
    assert traj.state_at(2.0).time == 2.0
    with pytest.raises(ValueError):
        traj.state_at(2.5)


def test_constant_trajectory_holds_the_state():
    st = State(np.full(8, 0.3), np.full(8, -0.1), time=1.0)
    traj = ReferenceTrajectory.constant(st, 4.0)
    for t in (1.0, 2.5, 4.0):
        got = traj.state_at(t)
        assert np.array_equal(got.zeta, st.zeta)
        assert np.array_equal(got.u, st.u)


def test_trajectory_depth_guard():
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    deep = State(np.zeros(grid.n), np.zeros(grid.n))
    shallow = State(np.full(grid.n, -1.5), np.zeros(grid.n), time=1.0)  # h = 0.25
    traj = ReferenceTrajectory.from_states([deep, shallow])
    with pytest.raises(DepthError):
        traj.validate_depth(Bathymetry.flat(grid), params)


def test_trajectory_speed_at_rest():
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    st = State(np.zeros(grid.n), np.zeros(grid.n))
    traj = ReferenceTrajectory.constant(st, 1.0)
    assert traj.max_speed(Bathymetry.flat(grid), params) == pytest.approx(1.0)


def test_linearized_tendency_at_the_reference_is_the_nonlinear_one():
    grid = Grid(256, 2.0 * np.pi)
    params = Parameters(0.3, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    st = random_state(grid, 33, kc=24)
    ref = ReferenceTrajectory.constant(st, 1.0)
    lin = condensed_tendency(*_frozen_coefficients(ref, 0.0, bath, params, grid), st.zeta, st.u)
    cond = condensed_rhs(st, bath, params, grid)
    assert np.array_equal(lin.dzeta, cond.dzeta)
    assert np.array_equal(lin.du, cond.du)


def test_linearization_about_rest_recovers_dispersive_waves():
    """About a resting reference the system is exactly the linear
    dispersion model, so one full period returns the initial wave."""
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    flat = Bathymetry.flat(grid)
    x = grid.nodes()
    k = 2.0
    sigma = fd_symbol(np.array(k), grid.dx)
    omega = k / np.sqrt(1.0 + params.mu * sigma**2 / 3.0)
    period = 2.0 * np.pi / omega
    ref = ReferenceTrajectory.constant(State(np.zeros(grid.n), np.zeros(grid.n)), period)
    ic = State(np.cos(k * x), (omega / k) * np.cos(k * x))
    out = solve_linear(ref, ic, flat, params, grid, StepControl(t_end=period), dt=period / 400)
    final = out.state_at(period)
    assert l2_diff(final, ic, grid) <= 1e-6


def test_linear_march_assembles_twice_per_step_plus_once(monkeypatch):
    """Stages 2 and 3 share the midpoint operator and each step-end
    operator is reused as the next step's start: 2m + 1 assemblies.
    Each of the 4m stage tendencies solves once in A and once in B."""
    import gn1d.gn_rhs
    import gn1d.linearized

    calls = {"assemble": 0, "solve": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(gn1d.linearized, "assemble_T", "assemble")
    counting(gn1d.gn_rhs, "solve_T", "solve")
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(0.3, 0.5, grid)
    ref = ReferenceTrajectory.constant(hump, 0.1)
    out = solve_linear(
        ref, hump, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.1), dt=0.02
    )
    m = out.times.size - 1
    assert m == 5
    assert calls["assemble"] == 2 * m + 1
    assert calls["solve"] == 8 * m


def test_linear_march_requires_a_covering_reference():
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    st = State(np.zeros(grid.n), np.zeros(grid.n))
    ref = ReferenceTrajectory.constant(st, 0.5)
    with pytest.raises(ValueError):
        solve_linear(ref, st, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))


def test_fixed_point_iteration_converges_to_the_nonlinear_flow():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    flat = Bathymetry.flat(grid)
    hump = gaussian_hump(0.3, 0.5, grid)
    control = StepControl(t_end=0.1, cfl=0.5, dt_max=0.005)
    result = picard_solve(hump, flat, params, grid, control, max_iters=20, tol=1e-9)
    assert result.converged
    assert result.iterations < 20
    assert all(b < a for a, b in zip(result.gaps, result.gaps[1:]))
    direct = run(hump, flat, params, grid, control)
    fin = result.trajectory.state_at(0.1)
    gap = State(fin.zeta - direct.final_state.zeta, fin.u - direct.final_state.u)
    assert xs_norm(gap, params, grid, s=2.0) <= 1e-5 * xs_norm(direct.final_state, params, grid, s=2.0)


def test_fixed_point_iteration_with_smoothing_still_converges():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(0.2, 0.6, grid)
    m = Mollifier.for_grid(4.0 / float(grid.wavenumbers()[-1]), grid)
    result = picard_solve(
        hump,
        Bathymetry.flat(grid),
        params,
        grid,
        StepControl(t_end=0.1, cfl=0.5, dt_max=0.005),
        max_iters=20,
        tol=1e-9,
        mollifier=m,
    )
    assert result.converged


def test_picard_solve_on_an_overflowed_state_raises_the_labeled_error():
    """The CFL step of an overflowed velocity is about 1e-200, so the march
    has an absurd step count; the first stage must still end it with a
    NonFiniteError rather than a failed allocation sized by that count."""
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    u = wave.u.copy()
    u[3] = 1e200
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        picard_solve(
            State(wave.zeta, u), Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0)
        )


def test_picard_solve_below_the_depth_floor_raises_depth_error():
    # the first linear solve validates its constant reference, whose
    # snapshots are the initial state
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    zeta = np.zeros(grid.n)
    zeta[5] = -1.5  # h = 0.25 at node 5
    with pytest.raises(DepthError) as info:
        picard_solve(
            State(zeta, np.zeros(grid.n)), Bathymetry.flat(grid), params, grid,
            StepControl(t_end=0.1),
        )
    assert info.value.min_value == 0.25
    assert info.value.location == 5
