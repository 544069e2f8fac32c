"""Time stepping: order of accuracy, safety monitors, and snapshots."""

import math
import re

import numpy as np
import pytest

import gn1d.diagnostics
import gn1d.gn_rhs
import gn1d.time_integrator
from gn1d import (
    Bathymetry, FactorizationError, Grid, Parameters, State, compute_depth, solitary_wave,
)
from gn1d.scenarios import bar_bathymetry, gaussian_hump, rest_state
from gn1d.time_integrator import RunOutcome, StepControl, _rk4, cfl_dt, rk4_step, run

from helpers import l2_diff, nonlinear_march_oracle_ratios


def test_step_control_validation():
    # an infinite t_end would make the stepping loop's end test NaN
    for t_end in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            StepControl(t_end=t_end)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_max=-0.1)


def test_cfl_step_at_rest_uses_gravity_speed():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    control = StepControl(t_end=1.0, cfl=0.5)
    u, h = np.zeros(grid.n), np.ones(grid.n)
    assert cfl_dt(u, h, params, grid, control) == pytest.approx(0.5 * grid.dx)  # sqrt(h) = 1
    capped = StepControl(t_end=1.0, cfl=0.5, dt_max=1e-3)
    assert cfl_dt(u, h, params, grid, capped) == 1e-3


def test_cfl_step_counts_the_advection_speed():
    # speed eps |u| + sqrt(h) = 0.5 * 2 + 1 = 2, so dt = 0.5 dx / 2, exactly
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    control = StepControl(t_end=1.0, cfl=0.5)
    assert cfl_dt(np.full(grid.n, 2.0), np.ones(grid.n), params, grid, control) == 0.25 * grid.dx


def test_cfl_step_of_a_trajectory_stack_is_its_fastest_state_step():
    # one rule for a state and for (m, n) stacks of them: the stack's step
    # is the smallest of its states' steps, bit for bit
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    bath = Bathymetry.flat(grid)
    control = StepControl(t_end=1.0)
    states = [rest_state(grid), solitary_wave(0.4, params, grid)]
    depths = [compute_depth(st.zeta, bath, params) for st in states]
    steps = [cfl_dt(st.u, h, params, grid, control) for st, h in zip(states, depths)]
    assert steps[1] < steps[0]
    u, h = np.array([st.u for st in states]), np.array(depths)
    assert cfl_dt(u, h, params, grid, control) == steps[1]
    # no depth and no velocity anywhere: no speed limits the step
    assert cfl_dt(np.zeros(grid.n), np.full(grid.n, -1.0), params, grid, control) == math.inf


def test_fourth_order_self_convergence():
    """Richardson triple on a traveling wave: halving dt shrinks the
    update difference by 16 +- 20%."""
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    flat = Bathymetry.flat(grid)

    def march(dt, t_end=0.4):
        st = wave
        for _ in range(round(t_end / dt)):
            st = rk4_step(st, dt, flat, params, grid)
        return st

    u1, u2, u4 = march(0.04), march(0.02), march(0.01)
    ratio = l2_diff(u1.zu, u2.zu, grid) / l2_diff(u2.zu, u4.zu, grid)
    assert 12.8 <= ratio <= 19.2


def test_a_step_hands_each_stage_stack_to_the_tendency(monkeypatch):
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    seen = []

    def spy(zu, *args):
        seen.append(zu)
        return gn1d.gn_rhs.nonlinear_rhs(zu, *args)

    monkeypatch.setattr(gn1d.time_integrator, "nonlinear_rhs", spy)
    rk4_step(wave, 0.01, Bathymetry.flat(grid), params, grid)
    assert [(type(zu), zu.shape) for zu in seen] == [(np.ndarray, (2, grid.n))] * 4
    assert seen[0] is wave.zu


def test_resting_lake_is_preserved_bit_for_bit():
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    bar = bar_bathymetry(0.3, 4.0, grid)
    st = rest_state(grid)
    for _ in range(200):
        st = rk4_step(st, 0.05, bar, params, grid)
    assert not st.zeta.any()
    assert not st.u.any()


def test_completed_run_reaches_final_time():
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    out = run(wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0, cfl=0.5))
    assert isinstance(out, RunOutcome)
    assert out.completed and out.status == "completed"
    assert out.final_state.time == pytest.approx(1.0, abs=1e-9)
    assert out.steps == len(out.history) - 1
    times = [rec.t for rec in out.history]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_mass_is_conserved_along_a_run():
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    out = run(wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=2.0, cfl=0.5))
    masses = [rec.mass for rec in out.history]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-12


def test_initial_depth_violation_stops_immediately():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    drowned = State(np.array((np.full(grid.n, -4.0), np.zeros(grid.n))))  # h = -1
    out = run(drowned, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))
    assert out.status == "blowup_depth"
    assert out.steps == 0


def test_norm_ceiling_below_start_trips_at_once():
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    out = run(
        wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0), norm_factor=1e-12
    )
    assert out.status == "blowup_norm"
    assert out.steps == 1


def test_reported_depth_minimum_matches_states():
    """min_h in the history is the depth of the recorded state, not a stale value."""
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    seen = []
    out = run(
        wave,
        Bathymetry.flat(grid),
        params,
        grid,
        StepControl(t_end=0.5, cfl=0.5),
        on_state=lambda step, st: seen.append(st),
    )
    assert len(seen) == out.steps + 1
    for rec, st in zip(out.history, seen):
        h = 1.0 + params.epsilon * st.zeta
        assert rec.min_h == h.min()
        assert rec.t == st.time


def test_a_run_hands_each_state_depth_to_its_record(monkeypatch):
    """run() takes each accepted state's depth once, for the record and the
    floor check alike; the record computes none of its own."""

    def no_depth(*args, **kwargs):
        raise AssertionError("the record computed a depth")

    monkeypatch.setattr(gn1d.diagnostics, "compute_depth", no_depth)
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    out = run(wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.2, cfl=0.5))
    assert out.completed and out.steps > 0


@pytest.mark.pinned
def test_a_run_takes_one_depth_per_accepted_state(monkeypatch):
    """The step rule reads the depth run() took for the record and the floor
    check, so a run takes steps + 1 depths: one of the initial state and one
    of each accepted step, none for the step that follows it."""
    real_depth = gn1d.time_integrator.compute_depth
    calls = []

    def counted(*args):
        calls.append(args)
        return real_depth(*args)

    monkeypatch.setattr(gn1d.time_integrator, "compute_depth", counted)
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    out = run(wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.2, cfl=0.5))
    assert out.completed and out.steps > 1
    assert len(calls) == out.steps + 1


def test_stage_overflow_ends_the_run_as_a_norm_blowup():
    """A velocity that overflows inside the first RK4 stage gives a labeled
    outcome instead of an exception escaping run()."""
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    zu = wave.zu.copy()
    zu[1, 3] = 1e200
    outcome = run(State(zu), Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))
    assert outcome.status == "blowup_norm"
    assert outcome.steps == 0
    assert outcome.final_state.u[3] == 1e200


def test_stage_factorization_failure_ends_the_run_as_a_solver_failure(monkeypatch):
    """A factorization that fails inside an RK4 stage gives a labeled
    outcome instead of an exception escaping run()."""
    def lost_definiteness(h, *args):
        raise FactorizationError(float(h.min()))

    monkeypatch.setattr(gn1d.gn_rhs, "assemble_T", lost_definiteness)
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    outcome = run(wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))
    assert outcome.status == "solver_failure"
    assert outcome.steps == 0
    assert outcome.final_state is wave


def test_stage_tendencies_leave_the_top_band_alone():
    """Spectral content above the truncation line stays frozen, so a
    band-limited start stays band-limited up to roundoff."""
    grid = Grid(128, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    top0 = np.abs(np.fft.rfft(wave.zeta)[grid.n // 3 + 1 :])
    st = wave
    for _ in range(20):
        st = rk4_step(st, 0.02, Bathymetry.flat(grid), params, grid)
    top = np.abs(np.fft.rfft(st.zeta)[grid.n // 3 + 1 :])
    assert np.max(np.abs(top - top0)) <= 1e-10


def test_rk4_kernel_integrates_a_cubic_in_time_exactly():
    """With a tendency that depends on time alone, RK4 is Simpson's rule,
    exact for cubics; this pins the stage offsets and the weights."""
    grid = Grid(16, 1.0)
    t0, dt = 0.7, 0.3
    one = np.ones(grid.n)

    def p(t):
        return 1.0 - 2.0 * t + 3.0 * t**2 + 4.0 * t**3

    def integral(t):
        return t - t**2 + t**3 + t**4

    pair = np.array((one, -one))
    dz, du = _rk4(np.array((one, one)), dt, grid, lambda c, y: p(t0 + c * dt) * pair)
    exact = integral(t0 + dt) - integral(t0)
    assert np.allclose(dz, exact, rtol=1e-14, atol=0.0)
    assert np.allclose(du, -exact, rtol=1e-14, atol=0.0)


def test_rk4_kernel_matches_the_taylor_polynomial_on_linear_decay():
    """For z' = lam z one step multiplies z by the degree-4 Taylor
    polynomial of exp(lam dt); this pins how the stages feed each other."""
    grid = Grid(16, 1.0)
    lam, dt = -1.3, 0.2
    z = np.full(grid.n, 2.0)
    dz, du = _rk4(np.array((z, z)), dt, grid, lambda c, y: np.array((lam * y[0], 0.0 * y[1])))
    x = lam * dt
    assert np.allclose(z + dz, 2.0 * (1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24), rtol=1e-14, atol=0.0)
    assert np.array_equal(du, np.zeros(grid.n))


def test_every_early_stop_keeps_its_reason(monkeypatch):
    """The outcome keeps the message of the stage error or tripped monitor,
    with the time and RK stage of a stage error, or the time of the step."""
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    bath = Bathymetry.flat(grid)
    wave = solitary_wave(0.4, params, grid)
    control = StepControl(t_end=1.0)

    done = run(wave, bath, params, grid, StepControl(t_end=0.1))
    assert done.completed and done.reason == ""

    drowned = State(wave.zu.copy())
    drowned.zeta[9] -= 4.0  # h = -1 at node 9
    out = run(drowned, bath, params, grid, control)
    assert out.status == "blowup_depth"
    assert out.reason == (
        "depth condition violated: min depth -1 at grid index 9 (t = 0, RK stage 1)"
    )

    out = run(wave, bath, params, grid, control, norm_factor=1e-12)
    assert out.status == "blowup_norm"
    assert out.reason.startswith("X^s norm ") and "exceeds the ceiling" in out.reason

    # the post-step monitors see what the step returns
    real_step = gn1d.time_integrator.rk4_step

    def step_with(node, value):
        def step(*args):
            new = real_step(*args)
            zu = new.zu.copy()
            zu[0, node] = value
            return State(zu, new.time)
        return step

    monkeypatch.setattr(gn1d.time_integrator, "rk4_step", step_with(17, -3.0))
    out = run(wave, bath, params, grid, control)
    assert out.status == "blowup_depth" and out.steps == 1
    t = f"{out.final_state.time:.6g}"
    assert out.reason == f"depth condition violated: min depth -0.5 at grid index 17 (t = {t})"

    monkeypatch.setattr(gn1d.time_integrator, "rk4_step", step_with(23, np.nan))
    out = run(wave, bath, params, grid, control)
    assert out.status == "blowup_norm" and out.steps == 1
    assert out.reason == f"non-finite value in the state at grid index 23 (t = {t})"


def test_the_end_tolerance_never_underflows_to_zero():
    """1e-12 t_end underflows to 0 below t_end of about 5e-312; the end
    tolerance is then the smallest positive double, so a CFL step that
    underflows to 0 is shorter than it and ends the march."""
    assert StepControl(t_end=0.1).end_tolerance(0.0) == 1e-13
    assert StepControl(t_end=1e-320).end_tolerance(0.0) == math.ulp(0.0) > 0.0


def test_a_step_below_the_end_tolerance_ends_the_run(monkeypatch):
    """A step shorter than end_tolerance would need more than 1e12 steps to
    reach t_end; the run ends blowup_norm after the first such step, once it
    passed the other monitors.  The patched step rule collapses after step
    1 and refuses to be asked more than a few times, so a run that kept
    stepping fails instead of hanging."""
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    real_cfl_dt = gn1d.time_integrator.cfl_dt
    calls = []

    def collapsing(*args):
        calls.append(args)
        assert len(calls) <= 5, "the run kept stepping below the end tolerance"
        return real_cfl_dt(*args) if len(calls) == 1 else 1e-15

    monkeypatch.setattr(gn1d.time_integrator, "cfl_dt", collapsing)
    out = run(wave, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))
    assert (out.status, out.steps, len(out.history)) == ("blowup_norm", 2, 3)
    t = f"{out.final_state.time:.6g}"
    assert out.reason == f"step 1e-15 is shorter than the end tolerance 1e-12 (t = {t})"


def test_nonlinear_march_about_rest_misses_the_rk4_oracle_linearly_in_the_amplitude():
    """About rest on a flat bottom the nonlinear march is the linear one
    plus a quadratic nonlinearity, so its relative miss against the RK4
    amplification matrix applied mode by mode (helpers.rk4_about_rest)
    is proportional to the amplitude a of the state.  Measured miss / a:
    32.174, 32.147, 32.147 at a = 1e-4, 1e-6, 1e-8 (spread 1.0008).  A wrong
    RK4 weight adds a miss that does not shrink with a, so miss / a grows
    as a falls.  ACCEPTANCE 13 prints the same ratios."""
    ratios = nonlinear_march_oracle_ratios((1e-4, 1e-6, 1e-8))
    assert max(ratios) <= 1.01 * min(ratios), ratios


@pytest.mark.parametrize("t0", (0.1, 1e300))
def test_run_refuses_a_start_that_does_not_precede_t_end(t0):
    # as solve_linear does: a march from there cannot end at t_end, and
    # run() used to report it completed at its start after 0 steps
    grid = Grid(16, 2.0 * np.pi)
    with pytest.raises(ValueError, match=re.escape(f"t_end 0.1 does not exceed the start {t0}")):
        run(
            State(np.zeros((2, grid.n)), t0), Bathymetry.flat(grid), Parameters(0.5, 0.5),
            grid, StepControl(t_end=0.1),
        )


def _hump_run(**kwargs):
    grid = Grid(32, 2.0 * np.pi)
    return run(
        gaussian_hump(0.3, 0.5, grid), Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4),
        grid, StepControl(t_end=0.05), **kwargs,
    )


@pytest.mark.parametrize("norm_factor", (math.nan, 0.0, -1.0))
def test_run_refuses_a_norm_factor_that_is_not_positive(norm_factor):
    # as `gn1d run` refuses blowup_factor: no norm passes a NaN ceiling, so
    # the run would end blowup_norm after one step, as if the norm had grown
    with pytest.raises(ValueError, match=f"norm_factor must be positive, got {norm_factor}"):
        _hump_run(norm_factor=norm_factor)


@pytest.mark.parametrize("s", (math.nan, math.inf, -math.inf))
def test_run_refuses_a_norm_index_that_is_not_finite(s):
    with pytest.raises(ValueError, match=f"s must be finite, got {s}"):
        _hump_run(s=s)
