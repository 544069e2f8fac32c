"""Frequency cutoff, reference trajectories, linearized marching, iteration."""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import gn1d.linearized
import gn1d.time_integrator
from gn1d import (
    Bathymetry,
    Grid,
    Parameters,
    State,
    bar_bathymetry,
    compute_depth,
    gaussian_hump,
    solitary_wave,
)
from gn1d.cli import RunConfig, prepare_run
from gn1d.diagnostics import es_norm, xs_norm
from gn1d.gn_rhs import FrozenState, coefficient_fields, condensed_rhs, condensed_tendency
from gn1d.grid_ops import apply_symbol, inner_product, lambda_s
from gn1d.linearized import (
    ReferenceTrajectory,
    cutoff_profile,
    cutoff_symbol,
    mollify,
    picard_solve,
    solve_linear,
)
from gn1d.t_operator import assemble_T
from gn1d.time_integrator import RunOutcome, StepControl, cfl_dt, run

from helpers import (
    band_limited, bumpy_bathymetry, fd_symbol, l2_diff, linear_march_oracle_miss, random_state,
)


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
        cutoff_symbol(0.0, Grid(16, 1.0))


def test_mollifier_requires_a_finite_scale():
    # phi(inf * 0) would put a NaN in the symbol's zero mode
    with pytest.raises(ValueError, match="finite"):
        cutoff_symbol(math.inf, Grid(16, 1.0))
    with pytest.raises(ValueError):
        cutoff_symbol(math.nan, Grid(16, 1.0))


def test_a_cutoff_scale_whose_products_overflow_keeps_the_mean_without_a_warning():
    # delta k overflows to inf above k = 0, where the cutoff is 0; under the
    # suite's error::RuntimeWarning filter a warning would raise
    symbol = cutoff_symbol(1e308, Grid(256, 60.0))
    assert symbol[0] == 1.0 and not symbol[1:].any()


def test_mollifier_passband_is_the_identity():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    m = cutoff_symbol(0.2, grid)  # passes |k| <= 5 untouched
    f = np.cos(4.0 * x) - 0.3 * np.sin(2.0 * x)
    assert np.allclose(mollify(f, m, grid), f, atol=1e-13)
    assert m[0] == 1.0


def test_mollifier_kills_far_band():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    m = cutoff_symbol(0.5, grid)  # zero beyond |k| = 4
    assert np.allclose(mollify(np.cos(8.0 * x), m, grid), 0.0, atol=1e-14)


def test_mollifier_is_self_adjoint():
    grid = Grid(64, 2.0 * np.pi)
    m = cutoff_symbol(0.1, grid)
    rng = np.random.default_rng(14)
    for _ in range(5):
        f = rng.standard_normal(grid.n)
        g = rng.standard_normal(grid.n)
        lhs = inner_product(mollify(f, m, grid), g, grid)
        rhs = inner_product(f, mollify(g, m, grid), grid)
        assert abs(lhs - rhs) <= 1e-13 * (abs(lhs) + 1.0)


def test_mollifier_commutes_with_sobolev_weight():
    grid = Grid(64, 2.0 * np.pi)
    m = cutoff_symbol(0.1, grid)
    k = grid.wavenumbers()
    lam = (1.0 + k * k) ** 1.0
    rng = np.random.default_rng(15)
    f = rng.standard_normal(grid.n)
    # the fused symbols are identical floats, so one-shot application
    # is exactly order-independent
    assert np.array_equal(
        apply_symbol(f, m * lam, grid), apply_symbol(f, lam * m, grid)
    )
    ab = mollify(lambda_s(f, 2.0, grid), m, grid)
    ba = lambda_s(mollify(f, m, grid), 2.0, grid)
    assert np.max(np.abs(ab - ba)) <= 1e-13 * np.max(np.abs(ab))


def test_mollifier_keeps_sup_norm_controlled():
    grid = Grid(256, 2.0 * np.pi)
    x = grid.nodes()
    fields = [np.sign(np.sin(x)), 1.0 / np.cosh(4.0 * (x - np.pi)), band_limited(grid, 30, 3)]
    for delta in (0.05, 0.2, 0.5):
        m = cutoff_symbol(delta, grid)
        for f in fields:
            assert np.max(np.abs(mollify(f, m, grid))) <= 1.2 * np.max(np.abs(f))


def test_trajectory_validation():
    z = np.zeros((2, 2, 8))
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([0.0]), z[:1])
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([0.0, 0.0]), z)
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([1.0, 0.5]), z)
    for times in ([math.nan, 1.0], [-math.inf, 1.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="snapshot times must be finite"):
            ReferenceTrajectory(np.array(times), z)
    with pytest.raises(ValueError):
        ReferenceTrajectory(np.array([0.0, 1.0]), np.zeros((3, 2, 8)))
    for fields in (np.zeros((2, 8)), np.zeros((2, 3, 8))):
        with pytest.raises(ValueError, match=r"\(m, 2, n\) stack"):
            ReferenceTrajectory(np.array([0.0, 1.0]), fields)


def test_trajectory_interpolates_linearly():
    n = 8
    za = np.zeros(n)
    zb = np.ones(n)
    traj = ReferenceTrajectory(np.array([0.0, 2.0]), [(za, zb), (zb, za)])
    (zeta, u), = traj.at([0.5])
    assert np.allclose(zeta, 0.25, atol=1e-15)
    assert np.allclose(u, 0.75, atol=1e-15)
    (zeta, u), = traj.at([2.0])
    assert np.array_equal(zeta, zb) and np.array_equal(u, za)
    with pytest.raises(ValueError):
        traj.at([2.5])


def test_trajectory_stack_equals_the_single_time_calls():
    rng = np.random.default_rng(21)
    times = np.cumsum(rng.uniform(0.1, 1.0, 6))
    traj = ReferenceTrajectory(times, rng.standard_normal((6, 2, 16)))
    # interior, snapshot and end times, the roundoff margins past either end
    # (clamped), and an unsorted order
    span = times[-1] - times[0]
    queries = np.concatenate(
        (rng.uniform(times[0], times[-1], 9), times,
         [times[0] - 1e-10 * span, times[-1] + 1e-10 * span])
    )[::-1]
    zus = traj.at(queries)
    assert zus.shape == (queries.size, 2, 16)
    for i, t in enumerate(queries):
        assert np.array_equal(zus[i], traj.at([t])[0])
        # the scalar interpolation, one time at a time, as the reference
        t = min(max(float(t), traj.t0), traj.t1)
        j = min(int(np.searchsorted(times, t, side="right") - 1), times.size - 2)
        w = (t - times[j]) / (times[j + 1] - times[j])
        assert np.array_equal(zus[i], (1.0 - w) * traj.fields[j] + w * traj.fields[j + 1])
    for bad in ([times[0] - 1e-6 * span], [times[1], times[-1] + 1e-6 * span], [np.nan]):
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.at(bad)


def test_constant_trajectory_holds_the_state():
    """A constant reference returns its state exactly at every time: Picard's
    iterate zero is the initial state.  Interpolated, (1 - w) a + w a misses
    a random a by an ulp at most of these times."""
    rng = np.random.default_rng(8)
    for st in (
        State(np.array((np.full(8, 0.3), np.full(8, -0.1))), time=1.0),
        State(rng.standard_normal((2, 64)), time=1.0),
    ):
        traj = ReferenceTrajectory.constant(st, 4.0)
        for zeta, u in traj.at(np.linspace(1.0, 4.0, 81)):
            assert np.array_equal(zeta, st.zeta)
            assert np.array_equal(u, st.u)


def test_trajectory_depth_guard():
    # a coefficient state is checked when a stage assembles its operator, so
    # the march ends at the first stage whose interpolated depth is too low
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    control = StepControl(t_end=1.0)
    deep = State(np.zeros((2, grid.n)))
    shallow = State(np.array((np.full(grid.n, -1.5), np.zeros(grid.n))), time=1.0)  # h = 0.25
    traj = ReferenceTrajectory.from_states([deep, shallow])
    out = solve_linear(traj, deep, Bathymetry.flat(grid), params, grid, control)
    assert (out.status, out.steps, out.trajectory) == ("blowup_depth", 4, None)
    assert out.reason == (
        "depth condition violated: min depth 0.4375 at grid index 0 (t = 0.75, RK stage 2)"
    )
    dip = np.zeros(grid.n)
    dip[5] = -1.5  # h = 0.25 at node 5 of the second snapshot only
    traj = ReferenceTrajectory.from_states([deep, State(np.array((dip, np.zeros(grid.n))), 1.0)])
    # one step: the midpoint's depth 0.625 passes, the end's 0.25 does not
    out = solve_linear(traj, deep, Bathymetry.flat(grid), params, grid, control, dt=1.0)
    assert (out.status, out.steps) == ("blowup_depth", 0)
    assert out.reason == (
        "depth condition violated: min depth 0.25 at grid index 5 (t = 1, RK stage 4)"
    )


def test_trajectory_speed_at_rest():
    """At rest the largest wave speed is sqrt(h) = 1, so the step is cfl dx."""
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    control = StepControl(t_end=1.0, cfl=0.5)
    st = State(np.zeros((2, grid.n)))
    sol = solve_linear(
        ReferenceTrajectory.constant(st, 1.0), st, Bathymetry.flat(grid), params, grid, control
    ).trajectory
    assert sol.times.size == math.ceil(control.t_end / (control.cfl * grid.dx)) + 1


def test_linearized_tendency_at_the_reference_is_the_nonlinear_one():
    grid = Grid(256, 2.0 * np.pi)
    params = Parameters(0.3, 0.5, h0=0.3)
    bath = bumpy_bathymetry(grid)
    st = State(random_state(grid, 33, kc=24))
    ref = ReferenceTrajectory.constant(st, 1.0)
    (zeta, u), = ref.at([0.0])
    h = compute_depth(zeta, bath, params)
    frozen = FrozenState(
        assemble_T(h, bath, params, grid), coefficient_fields(h, u, bath, params, grid)
    )
    lin = condensed_tendency(frozen, st.zu)
    cond = condensed_rhs(st.zu, bath, params, grid)
    assert np.array_equal(lin[0], cond[0])
    assert np.array_equal(lin[1], cond[1])


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
    ref = ReferenceTrajectory.constant(State(np.zeros((2, grid.n))), period)
    ic = State(np.array((np.cos(k * x), (omega / k) * np.cos(k * x))))
    out = solve_linear(ref, ic, flat, params, grid, StepControl(t_end=period), dt=period / 400)
    assert l2_diff(out.trajectory.at([period])[0], ic.zu, grid) <= 1e-6



@pytest.mark.parametrize("delta", [0.0, 0.1], ids=["plain", "mollified"])
def test_linear_march_about_rest_is_rk4_applied_mode_by_mode(delta):
    """About rest on a flat bottom the linear march is the RK4 amplification
    matrix applied mode by mode (helpers.rk4_about_rest), to round-off;
    ACCEPTANCE 13 prints the same miss."""
    assert linear_march_oracle_miss(delta) <= 1e-12

def _count_calls(monkeypatch, calls, module, name):
    """Count the calls of module.name into calls[name]."""
    original = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.pinned
def test_linear_march_assembles_twice_per_step_plus_once(monkeypatch):
    """Stages 2 and 3 share the midpoint operator and each step-end
    operator is reused as the next step's start: 2m + 1 assemblies.
    Each of the 4m stage tendencies applies A and evaluates B once, and
    solves once in each.  The depths come from one stacked call, which
    serves every stage.  The coefficient
    fields of all stages come from one stacked derivative per block; a
    stage differentiates only its own fields and Q1's argument.  The march
    freezes its states through gn_rhs.frozen_states, which makes these calls."""
    import gn1d.gn_rhs

    calls = {}
    for name in ("assemble_T", "compute_depth", "solve_T", "d1_spectral", "apply_A", "eval_B"):
        _count_calls(monkeypatch, calls, gn1d.gn_rhs, name)
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(0.3, 0.5, grid)
    ref = ReferenceTrajectory.constant(hump, 0.1)
    out = solve_linear(
        ref, hump, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.1), dt=0.02
    )
    m = out.trajectory.times.size - 1
    assert m == 5
    assert calls["assemble_T"] == 2 * m + 1
    assert calls["solve_T"] == 8 * m
    assert calls["apply_A"] == calls["eval_B"] == 4 * m
    assert calls["d1_spectral"] == 2 * 4 * m + 1
    assert calls["compute_depth"] == 1


@pytest.mark.pinned
def test_linear_march_over_two_stage_blocks_assembles_each_stage_once(monkeypatch):
    """At n = 4096 a block holds 32 steps, so 33 steps take two blocks: one
    more stacked depth and coefficient derivative, and the operator at the
    seam is assembled once."""
    import gn1d.gn_rhs

    calls = {}
    for name in ("assemble_T", "compute_depth", "d1_spectral"):
        _count_calls(monkeypatch, calls, gn1d.gn_rhs, name)
    grid = Grid(4096, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(0.3, 0.5, grid)
    ref = ReferenceTrajectory.constant(hump, 0.033)
    out = solve_linear(
        ref, hump, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.033), dt=0.001
    )
    m = out.trajectory.times.size - 1
    assert m == 33
    assert calls["assemble_T"] == 2 * m + 1
    assert calls["compute_depth"] == 2
    assert calls["d1_spectral"] == 2 * 4 * m + 2


@pytest.mark.pinned
def test_picard_gap_takes_one_energy_norm_per_snapshot(monkeypatch):
    """Each sweep's gap is a sup over its m + 1 snapshot times, one es_norm
    call each, weighted by the depths of the previous iterate.  Those are
    the depths the floor check took of that iterate (of the initial state
    for iterate zero), so each iterate's depth is one stacked call.  The
    stage depths are taken through gn_rhs.frozen_states, so both bindings
    of compute_depth are counted together."""
    import gn1d.gn_rhs
    import gn1d.linearized

    calls = {}
    _count_calls(monkeypatch, calls, gn1d.linearized, "es_norm")
    _count_calls(monkeypatch, calls, gn1d.linearized, "compute_depth")
    _count_calls(monkeypatch, calls, gn1d.gn_rhs, "compute_depth")
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(0.3, 0.5, grid)
    control = StepControl(t_end=0.1, dt_max=0.02)
    result = picard_solve(hump, Bathymetry.flat(grid), params, grid, control, max_iters=3, tol=0.0)
    m = result.trajectory.times.size - 1
    assert (result.status, len(result.gaps), m) == ("not_converged", 3, 5)
    assert calls["es_norm"] == len(result.gaps) * (m + 1)
    # per sweep: the stage depths and the iterate's depths; one for iterate zero
    assert calls["compute_depth"] == 2 * len(result.gaps) + 1


@pytest.mark.parametrize("setting", ["plain", "mollified", "bar", "wave"])
def test_each_picard_gap_is_the_gap_to_the_interpolated_previous_iterate(monkeypatch, setting):
    """The gap is taken against the iterate the loop holds.  Each gap must
    equal, bit for bit, the gap to the previous iterate interpolated at the
    new snapshot times and weighted by its own depths (iterate zero is the
    initial state frozen in time).  In the wave setting, a still surface
    with a band-limited velocity, sweep 1's difference peaks before the
    final time, so only a sup over the snapshot times gives its gap."""
    import gn1d.linearized

    grid = Grid(64, 20.0)
    params = Parameters(0.5, 0.5, h0=0.4)
    initial = gaussian_hump(0.3, 2.0, grid)
    control = StepControl(t_end=0.3, dt_max=0.02)
    if setting == "wave":
        grid = Grid(128, 2.0 * np.pi)
        params = Parameters(0.3, 0.5, h0=0.3)
        initial = State(np.array((np.zeros(grid.n), band_limited(grid, 8, 3, 0.3))))
        control = StepControl(t_end=2.0, dt_max=0.02)
    bath = bar_bathymetry(0.3, 1.5, grid, x0=15.0) if setting == "bar" else Bathymetry.flat(grid)
    mollifier = cutoff_symbol(0.5, grid) if setting == "mollified" else None
    iterates = [ReferenceTrajectory.constant(initial, control.t_end)]
    original = gn1d.linearized.solve_linear

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        iterates.append(out.trajectory)
        return out

    monkeypatch.setattr(gn1d.linearized, "solve_linear", recorded)
    result = picard_solve(
        initial, bath, params, grid, control, max_iters=4, tol=0.0, mollifier=mollifier
    )
    assert (result.status, len(result.gaps), len(iterates)) == ("not_converged", 4, 5)
    norms = []
    for prev, cur in zip(iterates, iterates[1:]):
        at = prev.at(cur.times)
        prev_h = compute_depth(at[:, 0], bath, params)
        norms.append([
            es_norm(d, h, bath, params, grid, 2.0) for d, h in zip(cur.fields - at, prev_h)
        ])
    want = [float(np.max(n)) for n in norms]
    assert result.gaps == want
    assert all(b < a for a, b in zip(want, want[1:]))
    if setting == "wave":
        assert norms[0][-1] < 0.9 * want[0]


def test_a_nan_picard_gap_never_counts_as_converged():
    """At s = 1000 the Lambda^s weights overflow, so every gap norm is NaN;
    the gap must carry the NaN, not keep its zero start and converge."""
    grid = Grid(32, 2.0 * np.pi)
    hump = gaussian_hump(0.3, 0.5, grid)
    control = StepControl(t_end=0.02, dt_max=0.01)
    result = picard_solve(
        hump, Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid, control,
        max_iters=2, s=1000.0,
    )
    assert result.status == "not_converged"
    assert result.reason == "not converged after 2 iterations"
    assert len(result.gaps) == 2
    assert all(math.isnan(gap) for gap in result.gaps)


def test_linear_march_requires_a_covering_reference():
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    st = State(np.zeros((2, grid.n)))
    ref = ReferenceTrajectory.constant(st, 0.5)
    with pytest.raises(ValueError):
        solve_linear(ref, st, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))


def test_linear_march_requires_t_end_after_the_reference_start():
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    st = State(np.zeros((2, grid.n)), 1.0)
    ref = ReferenceTrajectory.constant(st, 2.0)
    with pytest.raises(ValueError, match="t_end 1.0 does not exceed the start 1.0"):
        solve_linear(ref, st, Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))


@pytest.mark.parametrize("t0", (1.0, -3.0))
def test_linear_march_refuses_an_initial_state_off_the_reference_start(t0):
    # the march starts at the reference's start: from another time it
    # stepped from 0 to t_end all the same and reported completion
    grid = Grid(32, 2.0 * np.pi)
    hump = gaussian_hump(0.3, 0.5, grid)
    ref = ReferenceTrajectory.constant(hump, 2.0)
    want = f"^initial state at t = {t0} is not at the reference start 0.0$"
    with pytest.raises(ValueError, match=want):
        solve_linear(
            ref, State(hump.zu, t0), Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid,
            StepControl(t_end=0.5),
        )


def test_picard_refuses_a_start_that_does_not_precede_t_end():
    # as run() does; the constant reference from there raised that its
    # snapshot times were not increasing
    grid = Grid(32, 2.0 * np.pi)
    hump = State(gaussian_hump(0.3, 0.5, grid).zu, 1.0)
    with pytest.raises(ValueError, match="^t_end 0.5 does not exceed the start 1.0$"):
        picard_solve(
            hump, Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid,
            StepControl(t_end=0.5),
        )


@pytest.mark.parametrize("march", ("solve_linear", "picard_solve"))
def test_a_linear_march_refuses_a_mollifier_of_another_grid(monkeypatch, march):
    # refused before the first RK4 step, where numpy raised from stage 1
    # that the shapes could not be broadcast together
    calls = _bound_rk4(monkeypatch, 0)
    grid = Grid(32, 2.0 * np.pi)
    hump = gaussian_hump(0.3, 0.5, grid)
    mollifier = cutoff_symbol(0.5, Grid(64, 20.0))
    args = (Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid, StepControl(t_end=0.5))
    with pytest.raises(ValueError, match="^mollifier has 33 wavenumbers, the grid 17$"):
        if march == "solve_linear":
            solve_linear(ReferenceTrajectory.constant(hump, 2.0), hump, *args, mollifier)
        else:
            picard_solve(hump, *args, mollifier=mollifier)
    assert not calls


def test_a_linear_march_reads_its_reference_at_the_nodes_of_one_time_line(monkeypatch):
    """Node i = 0 ... 2m of an m-step march sits at t0 + dt * (i / 2), so its
    even nodes are the trajectory's snapshot times bit for bit.  Counted
    from each step's start, (t0 + dt j) + dt missed t0 + dt (j + 1) by an
    ulp at some steps."""
    grid = Grid(32, 2.0 * np.pi)
    hump = State(gaussian_hump(0.3, 0.5, grid).zu, 0.1)
    control = StepControl(t_end=1.0)
    ref = ReferenceTrajectory.constant(hump, control.t_end)
    asked = []
    real_at = ref.at
    monkeypatch.setattr(ref, "at", lambda times: asked.append(times) or real_at(times))
    out = solve_linear(
        ref, hump, Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid, control, dt=0.03
    )
    m = out.steps
    assert (out.status, m) == ("completed", 30)
    dt = (control.t_end - hump.time) / m
    nodes = np.concatenate(asked)
    assert np.array_equal(nodes, hump.time + dt * (np.arange(2 * m + 1) / 2))
    assert np.array_equal(nodes[::2], out.trajectory.times)


@pytest.mark.parametrize("n", [64, 32768])
def test_a_linear_march_reads_a_reference_that_ends_within_the_end_tolerance(monkeypatch, n):
    """The entry admits a reference that ends within the end tolerance
    before t_end, so the march reads every later node at the reference's
    end.  On a span short against t_end the reference's own margin, 1e-9 of
    its span, is narrower: the read of t_end raised a ValueError inside an
    RK4 stage, at n = 32768 (blocks of 8 nodes) after 3 completed steps."""
    _bound_rk4(monkeypatch, 6)
    grid = Grid(n, 20.0)
    hump = gaussian_hump(0.3, 2.0, grid)
    control = StepControl(t_end=1 + 1e-11)
    ref = ReferenceTrajectory([1.0, 1 + 1e-11 - 5e-13], [hump.zu, hump.zu])
    out = solve_linear(
        ref, State(hump.zu, 1.0), Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid,
        control, dt=2e-12,
    )
    assert (out.status, out.steps, out.trajectory.t1) == ("completed", 6, control.t_end)


@pytest.mark.parametrize(
    "mu, sweeps, checked",
    [(None, 7, [2, 3, 4]), (0.05, 8, [2, 3, 4, 5])],
    ids=["bench", "mu_0.05"],
)
def test_picards_largest_ratio_bound_holds_the_distance_to_the_limit(
    monkeypatch, mu, sweeps, checked
):
    """A contraction with ratio r puts iterate k within r g_k / (1 - r) of
    the limit, g_k being sweep k's gap.  On the digest's PICARD_BENCH, and
    on it at mu = 0.05, the last sweep reaches the rounding floor and stands
    for the limit; iterate k's distance is the sup over snapshots of
    es_norm(F_k - F_last) weighted by F_k's depths, and the iterate before
    the last one's is the floor.  The bound, with r the largest gap ratio so
    far, must hold at every sweep k >= 2 that lies at least 17 times above
    the floor.  On PICARD_BENCH those are sweeps 2-4 (quotients 1.66, 2.44,
    2.14), and with the last ratio alone the bound fails at sweep 4 (0.87),
    as the ratios rise there.  At mu = 0.05 they are sweeps 2-5, and the gap
    ratios of sweeps 2-6 fall at every sweep (7.4e-3 ... 1.2e-3)."""
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    cfg = digest.PICARD_BENCH if mu is None else {**digest.PICARD_BENCH, "mu": mu}
    prep = prepare_run(RunConfig(**cfg))
    bath, params, grid, s = prep.bathymetry, prep.params, prep.grid, prep.cfg.s
    iterates = []
    original = gn1d.linearized.solve_linear

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        iterates.append(out.trajectory)
        return out

    monkeypatch.setattr(gn1d.linearized, "solve_linear", recorded)
    result = picard_solve(
        prep.state, bath, params, grid, prep.control, max_iters=sweeps, tol=0.0, s=s,
        mollifier=prep.mollifier,
    )
    assert (result.status, len(iterates)) == ("not_converged", sweeps)

    def distance(k):
        fields = iterates[k - 1].fields
        h = compute_depth(fields[:, 0], bath, params)
        diff = fields - iterates[-1].fields
        return max(es_norm(d, h_j, bath, params, grid, s) for d, h_j in zip(diff, h))

    g, floor = result.gaps, distance(sweeps - 1)
    ratios = [b / a for a, b in zip(g, g[1:])]
    true = {k: distance(k) for k in range(2, sweeps - 1)}
    assert [k for k, d in true.items() if d >= 17.0 * floor] == checked
    for k in checked:
        r = max(ratios[: k - 1])
        assert r * g[k - 1] / (1.0 - r) >= true[k]
    if mu is None:
        last = ratios[2]
        assert last * g[3] / (1.0 - last) < true[4]
    else:
        assert np.all(np.diff(ratios[:5]) < 0.0)


@pytest.mark.parametrize("setting", ["plain", "bar"])
def test_a_picard_sweep_freezes_the_held_iterate_at_every_step_end(monkeypatch, setting):
    """Sweep 1 freezes the initial state, exactly, at all 2m + 1 nodes, and
    each later sweep freezes the previous iterate's snapshots, bit for bit,
    at its step ends; only the midpoints are interpolated."""
    import gn1d.linearized

    grid = Grid(64, 20.0)
    params = Parameters(0.5, 0.5, h0=0.4)
    hump = gaussian_hump(0.3, 2.0, grid)
    bath = bar_bathymetry(0.3, 1.5, grid, x0=15.0) if setting == "bar" else Bathymetry.flat(grid)
    control = StepControl(t_end=0.3, dt_max=0.02)
    frozen, iterates = [], []
    real_frozen_states = gn1d.linearized.frozen_states
    real_solve_linear = gn1d.linearized.solve_linear

    def recorded_frozen_states(coeff, *args):
        frozen[-1].append(coeff)
        return real_frozen_states(coeff, *args)

    def recorded_solve_linear(*args, **kwargs):
        frozen.append([])
        out = real_solve_linear(*args, **kwargs)
        iterates.append(out.trajectory)
        return out

    monkeypatch.setattr(gn1d.linearized, "frozen_states", recorded_frozen_states)
    monkeypatch.setattr(gn1d.linearized, "solve_linear", recorded_solve_linear)
    result = picard_solve(hump, bath, params, grid, control, max_iters=3, tol=0.0)
    m = result.steps
    assert (result.status, len(iterates), m) == ("not_converged", 3, 15)
    coeff = [np.concatenate(blocks) for blocks in frozen]
    assert coeff[0].shape == (2 * m + 1, 2, grid.n)
    assert all(np.array_equal(row, hump.zu) for row in coeff[0])
    for prev, sweep in zip(iterates, coeff[1:]):
        assert np.array_equal(sweep[::2], prev.fields)


@pytest.mark.parametrize("dt", (0.0, -0.01, math.nan))
def test_linear_march_refuses_a_step_that_is_not_positive(dt):
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    st = State(np.zeros((2, grid.n)))
    ref = ReferenceTrajectory.constant(st, 0.1)
    with pytest.raises(ValueError, match=f"^step dt must be positive, got {dt}$"):
        solve_linear(
            ref, st, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.1), dt=dt
        )


def _bound_rk4(monkeypatch, cap):
    """Make the RK4 kernels of both marches refuse call cap + 1 of a test,
    so a march that kept stepping fails instead of hanging."""
    calls = []
    for module in (gn1d.time_integrator, gn1d.linearized):
        real_rk4 = module._rk4

        def bounded(*args, real_rk4=real_rk4):
            calls.append(args)
            assert len(calls) <= cap, "a march kept stepping"
            return real_rk4(*args)

        monkeypatch.setattr(module, "_rk4", bounded)
    return calls


def _march(march, state, bathymetry, params, grid, control, dt=None):
    """Call one of the three library marches from state to control.t_end."""
    if march == "run":
        return run(state, bathymetry, params, grid, control)
    if march == "solve_linear":
        ref = ReferenceTrajectory.constant(state, control.t_end)
        return solve_linear(ref, state, bathymetry, params, grid, control, dt=dt)
    return picard_solve(state, bathymetry, params, grid, control)


@pytest.mark.parametrize("march", ("solve_linear", "picard_solve"))
def test_a_step_below_the_end_tolerance_ends_the_linear_march(monkeypatch, march):
    """Like run(), the linear march ends blowup_norm after its first step
    shorter than end_tolerance: a caller's step of 1e-20, and Picard's
    first sweep at cfl = 1e-300.  The RK4 step refuses a third call, so a
    march that kept stepping toward its 1e19 or more steps fails at once."""
    calls = _bound_rk4(monkeypatch, 2)
    grid = Grid(32, 20.0)
    params = Parameters(0.5, 0.5, h0=0.3)
    flat = Bathymetry.flat(grid)
    hump = gaussian_hump(0.2, 2.0, grid)
    if march == "solve_linear":
        ref = ReferenceTrajectory.constant(hump, 0.1)
        out = solve_linear(ref, hump, flat, params, grid, StepControl(t_end=0.1), dt=1e-20)
        dt, prefix = 1e-20, ""
    else:
        control = StepControl(t_end=0.1, cfl=1e-300)
        out = picard_solve(hump, flat, params, grid, control)
        h = compute_depth(hump.zeta, flat, params)
        dt = 0.1 / math.ceil(0.1 / cfl_dt(hump.u, h, params, grid, control))
        prefix = "sweep 1: "
    assert (out.status, out.steps, out.trajectory, len(calls)) == ("blowup_norm", 1, None, 1)
    assert out.reason == (
        f"{prefix}step {dt:.3g} is shorter than the end tolerance 1e-13 (t = {dt:.6g})"
    )


@pytest.mark.parametrize("t_end, cfl", [(0.1, 1e-310), (0.1, 5e-324), (1e-320, 5e-324)])
@pytest.mark.parametrize("march", ("solve_linear", "picard_solve"))
def test_a_cfl_step_too_short_to_count_ends_the_linear_march_as_run_does(
    monkeypatch, march, t_end, cfl
):
    """At cfl = 1e-310 the span over the CFL step overflows, and at
    cfl = 5e-324 the step underflows to 0; neither step is counted.  At
    t_end = 1e-320, 1e-12 t_end underflows too, and the end tolerance is
    the smallest positive double, so a step of 0 is still shorter.  Each
    march ends as run() does: blowup_norm after its one step, with the same
    reason (named by its sweep in Picard).  The RK4 kernels refuse a fifth
    call, so a march that kept stepping fails instead of hanging."""
    calls = _bound_rk4(monkeypatch, 4)
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    flat = Bathymetry.flat(grid)
    hump = gaussian_hump(0.3, 0.5, grid)
    control = StepControl(t_end=t_end, cfl=cfl)
    want = run(hump, flat, params, grid, control)
    assert (want.status, want.steps) == ("blowup_norm", 1)
    if march == "solve_linear":
        ref = ReferenceTrajectory.constant(hump, t_end)
        out, prefix = solve_linear(ref, hump, flat, params, grid, control), ""
    else:
        out, prefix = picard_solve(hump, flat, params, grid, control), "sweep 1: "
    assert (out.status, out.steps, out.trajectory) == ("blowup_norm", 1, None)
    assert out.reason == prefix + want.reason
    assert "is shorter than the end tolerance" in out.reason


@pytest.mark.parametrize("t0", (-1e20, -1e308))
@pytest.mark.parametrize("march", ("run", "solve_linear", "picard_solve"))
def test_every_march_from_a_start_far_before_zero_ends_after_one_step(monkeypatch, march, t0):
    """The end tolerance is 1e-12 of the longer of t_end and the span from
    the start, so from t0 = -1e20 to t_end = 1 it is 1e8 and every step
    is shorter: each march ends blowup_norm after one step, where a
    tolerance of 1e-12 t_end left run() and Picard stepping for 1e20
    steps and made solve_linear's count of 1e308 / 1e-3 overflow."""
    calls = _bound_rk4(monkeypatch, 1)
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    flat = Bathymetry.flat(grid)
    hump = State(gaussian_hump(0.3, 0.5, grid).zu, t0)
    control = StepControl(t_end=1.0)
    dt = 1e-3 if march == "solve_linear" else cfl_dt(
        hump.u, compute_depth(hump.zeta, flat, params), params, grid, control
    )
    out = _march(march, hump, flat, params, grid, control, dt=dt)
    prefix = "sweep 1: " if march == "picard_solve" else ""
    assert (out.status, out.steps, len(calls)) == ("blowup_norm", 1, 1)
    assert out.reason == (
        f"{prefix}step {dt:.3g} is shorter than the end tolerance "
        f"{control.end_tolerance(t0):.3g} (t = {t0:.6g})"
    )
    assert control.end_tolerance(t0) == 1e-12 * (1.0 - t0)


@pytest.mark.parametrize("march", ("run", "solve_linear", "picard_solve"))
def test_every_march_on_an_overflowing_hump_ends_labeled_without_a_warning(march):
    """At amplitude 1e200 the stage products overflow; the first stage
    reports the non-finite operator as the labeled outcome, and numpy's
    overflow and invalid-value warnings on the way there stay silent
    inside the march, not only under gn1d run."""
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(1e200, 0.5, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _march(march, hump, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.1))
    prefix = "sweep 1: " if march == "picard_solve" else ""
    assert (out.status, out.steps) == ("blowup_norm", 0)
    assert out.reason == (
        f"{prefix}non-finite value in the band storage of T at grid index 0 (t = 0, RK stage 1)"
    )


def test_fixed_point_iteration_converges_to_the_nonlinear_flow():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    flat = Bathymetry.flat(grid)
    hump = gaussian_hump(0.3, 0.5, grid)
    control = StepControl(t_end=0.1, cfl=0.5, dt_max=0.005)
    result = picard_solve(hump, flat, params, grid, control, max_iters=20, tol=1e-9)
    assert result.completed
    assert len(result.gaps) < 20
    assert all(b < a for a, b in zip(result.gaps, result.gaps[1:]))
    direct = run(hump, flat, params, grid, control)
    gap = result.trajectory.at([0.1])[0] - direct.final_state.zu
    assert xs_norm(gap, params, grid, s=2.0) <= 1e-5 * xs_norm(direct.final_state.zu, params, grid, s=2.0)


def test_fixed_point_iteration_with_smoothing_still_converges():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump = gaussian_hump(0.2, 0.6, grid)
    m = cutoff_symbol(4.0 / float(grid.wavenumbers()[-1]), grid)
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
    assert result.completed


def test_picard_solve_refuses_fewer_than_one_sweep():
    # with no sweep there is no outcome to return: refused at entry, like a
    # reference that ends before t_end; so is a cap that is not an integer
    # (inf and 2.5 raised a TypeError from the sweep loop), but a numpy
    # integer is a cap
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.3)
    rest = State(np.zeros((2, grid.n)))
    control = StepControl(t_end=0.1)
    for max_iters in (0, -1, math.inf, 2.5, math.nan, 3.0):
        with pytest.raises(ValueError, match="^max_iters must be an integer of at least 1, got "):
            picard_solve(rest, Bathymetry.flat(grid), params, grid, control, max_iters=max_iters)
    out = picard_solve(rest, Bathymetry.flat(grid), params, grid, control, max_iters=np.int64(1))
    assert (out.status, out.gaps) == ("completed", [0.0])


def test_picard_solve_on_an_overflowed_state_ends_with_the_labeled_outcome():
    """The CFL step of an overflowed velocity is about 1e-200, so the march
    has an absurd step count; the first stage must still end it with a
    non-finite blow-up rather than a failed allocation sized by that count."""
    grid = Grid(64, 60.0)
    params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, params, grid)
    zu = wave.zu.copy()
    zu[1, 3] = 1e200
    out = picard_solve(State(zu), Bathymetry.flat(grid), params, grid, StepControl(t_end=1.0))
    assert (out.status, out.steps, out.gaps, out.trajectory) == ("blowup_norm", 0, [], None)
    assert out.reason == (
        "sweep 1: non-finite value in the right-hand side of a solve with T at grid index 0 "
        "(t = 0, RK stage 1)"
    )


def test_picard_solve_below_the_depth_floor_ends_with_blowup_depth():
    # the first stage assembles the operator of the constant reference,
    # whose snapshots are the initial state
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    zu = np.zeros((2, grid.n))
    zu[0, 5] = -1.5  # h = 0.25 at node 5
    out = picard_solve(State(zu), Bathymetry.flat(grid), params, grid, StepControl(t_end=0.1))
    assert (out.status, out.steps, out.gaps, out.trajectory) == ("blowup_depth", 0, [], None)
    assert out.reason == (
        "sweep 1: depth condition violated: min depth 0.25 at grid index 5 (t = 0, RK stage 1)"
    )


def test_a_picard_iterate_below_the_depth_floor_ends_with_blowup_depth():
    """A linear march checks the coefficient states it assembles, not the
    states it produces, so picard_solve checks each completed iterate: the
    over-tall hump's first iterate dips below h0 = 0.95 at t = 2.05357, and
    the solve ends there, with no gap and no trajectory."""
    grid = Grid(64, 20.0)
    params = Parameters(1.0, 0.5, h0=0.95)
    hump = gaussian_hump(2.0, 1.0, grid)
    control = StepControl(t_end=5.0)
    out = picard_solve(hump, Bathymetry.flat(grid), params, grid, control, max_iters=1)
    assert (out.status, out.gaps, out.trajectory) == ("blowup_depth", [], None)
    assert out.reason == (
        "sweep 1: depth condition violated: min depth 0.852784 at grid index 32 (t = 2.05357)"
    )
    # steps counts the steps that reached that snapshot, of the uniform
    # step that divides t_end evenly into steps no longer than the CFL step
    h = compute_depth(hump.zeta, Bathymetry.flat(grid), params)
    m = math.ceil(control.t_end / cfl_dt(hump.u, h, params, grid, control))
    assert out.reason.endswith(f"(t = {out.steps * control.t_end / m:.6g})")


def test_a_picard_iterate_stops_at_its_earliest_low_snapshot(monkeypatch):
    """Two snapshots of the iterate lie below h0 = 0.5: at t = 0.05 the depth
    is 0.45 at node 3, at t = 0.1 it is 0.1 at node 9 and NaN at node 12.
    The sweep stops at the earlier one, with that snapshot's own minimum and
    grid index, not the iterate's deepest value or its first NaN."""
    import gn1d.linearized

    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    fields = np.zeros((3, 2, grid.n))
    fields[1, 0, 3] = -1.1  # h = 0.45
    fields[2, 0, 9] = -1.8  # h = 0.1
    fields[2, 0, 12] = np.nan
    iterate = ReferenceTrajectory([0.0, 0.05, 0.1], fields)
    monkeypatch.setattr(
        gn1d.linearized, "solve_linear",
        lambda *args, **kwargs: RunOutcome("completed", steps=2, trajectory=iterate),
    )
    rest = State(np.zeros((2, grid.n)))
    out = picard_solve(rest, Bathymetry.flat(grid), params, grid, StepControl(t_end=0.1))
    assert (out.status, out.steps, out.gaps, out.trajectory) == ("blowup_depth", 1, [], None)
    assert out.reason == (
        "sweep 1: depth condition violated: min depth 0.45 at grid index 3 (t = 0.05)"
    )


def _hump_picard(**kwargs):
    grid = Grid(32, 2.0 * np.pi)
    return picard_solve(
        gaussian_hump(0.3, 0.5, grid), Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4),
        grid, StepControl(t_end=0.05), **kwargs,
    )


@pytest.mark.parametrize("tol", (math.nan, -1.0, -math.inf))
def test_picard_refuses_a_tolerance_that_is_nan_or_negative(tol):
    # no gap is at most a NaN or negative tolerance: every sweep would run to not_converged
    with pytest.raises(ValueError, match=f"tol must be >= 0, got {tol}"):
        _hump_picard(tol=tol)


def test_picard_accepts_a_tolerance_of_zero():
    out = _hump_picard(tol=0.0)
    assert out.completed and out.gaps[-1] == 0.0


@pytest.mark.parametrize("s", (math.nan, math.inf, -math.inf))
def test_picard_refuses_a_norm_index_that_is_not_finite(s):
    with pytest.raises(ValueError, match=f"s must be finite, got {s}"):
        _hump_picard(s=s)
