"""Seeded library fuzz: every march ends in a labeled outcome or refuses at entry.

A fixed seed draws calls of run, solve_linear and picard_solve on small
grids (n <= 32) and sets one or two of each call's arguments to a value
from an extreme pool: a StepControl field, a caller's step dt, the
Picard iteration cap and tolerance, the norm index s, run's norm ceiling
factor, a mollifier's cutoff scale delta, the march's start time t0 (NaN
and infinite ones included), or the amplitude of its hump.  Whatever the
values, each call must return a RunOutcome or raise ValueError before
its first RK4 step, nothing else may raise or warn on the way, and a
completed march must end within its end tolerance of t_end.  No pool
value starts a long march: t_end never exceeds the base run's, the
iteration cap is small or refused, a start before 0 lengthens the span
to at most 1.1 or else ends a march after one step, and a step is only
ever shortened, which ends a march after one step.
"""

import math
import warnings

import numpy as np
import pytest

import gn1d.linearized
import gn1d.time_integrator
from gn1d import Bathymetry, Grid, Parameters, State, bar_bathymetry, gaussian_hump
from gn1d.linearized import Mollifier, ReferenceTrajectory, picard_solve, solve_linear
from gn1d.time_integrator import RunOutcome, StepControl, run

SEED = 31
CALLS = 1500

_EXTREMES = (1e-310, 5e-324, 1e300, math.nan, math.inf, 0.0, -1.0)
# each argument's pool; t_end leaves out 1e300, which would march for 1e301 steps
POOLS = {
    "t_end": tuple(v for v in _EXTREMES if v != 1e300),
    "cfl": _EXTREMES,
    "dt_max": _EXTREMES,
    "dt": _EXTREMES,
    "max_iters": (0, -1, 1, 2, math.inf, 2.5, math.nan),
    "tol": (*_EXTREMES, -math.inf),
    "s": (*_EXTREMES, -math.inf),
    "norm_factor": _EXTREMES,
    "delta": _EXTREMES,
    "t0": (-1e20, -1e308, -1.0, 1e300, math.nan, -math.inf, math.inf),
    "amplitude": (1e150, 1e200),
}
# the arguments each march takes
ARGS = {
    "run": ("t_end", "cfl", "dt_max", "s", "norm_factor", "t0", "amplitude"),
    "solve_linear": ("t_end", "cfl", "dt_max", "dt", "delta", "t0", "amplitude"),
    "picard_solve": (
        "t_end", "cfl", "dt_max", "max_iters", "tol", "s", "delta", "t0", "amplitude",
    ),
}
BASE = {
    "t_end": 0.1, "cfl": 0.5, "dt_max": math.inf, "max_iters": 3, "tol": 1e-8, "s": 2.0,
    "norm_factor": 1e3, "t0": 0.0, "amplitude": 0.3,
}


def _draw(rng: np.random.Generator) -> tuple[str, int, bool, dict]:
    """A march, its grid size, whether its bottom has a bar, and one or two
    of its arguments set from their pools."""
    march = str(rng.choice(sorted(ARGS)))
    keys = rng.choice(ARGS[march], size=rng.integers(1, 3), replace=False)
    drawn = {str(key): POOLS[str(key)][rng.integers(len(POOLS[str(key)]))] for key in keys}
    return march, int(rng.choice((8, 16, 32))), bool(rng.integers(2)), drawn


def _call(march: str, n: int, bar: bool, drawn: dict):
    """Build the drawn call's arguments and make it; the arguments' own
    checks (StepControl, Mollifier) are part of its entry."""
    grid = Grid(n, 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    bottom = bar_bathymetry(0.2, 0.8, grid) if bar else Bathymetry.flat(grid)
    arg = {**BASE, **drawn}
    hump = State(gaussian_hump(arg["amplitude"], 0.5, grid).zu, arg["t0"])
    control = StepControl(t_end=arg["t_end"], cfl=arg["cfl"], dt_max=arg["dt_max"])
    mollifier = Mollifier.for_grid(arg["delta"], grid) if "delta" in arg else None
    if march == "run":
        return run(hump, bottom, params, grid, control, arg["s"], arg["norm_factor"])
    if march == "solve_linear":
        ref = ReferenceTrajectory.constant(hump, control.t_end)
        return solve_linear(ref, hump, bottom, params, grid, control, mollifier, arg.get("dt"))
    return picard_solve(
        hump, bottom, params, grid, control, arg["max_iters"], arg["tol"], arg["s"], mollifier
    )


@pytest.mark.parametrize("case", ["reference", "linear state", "run", "picard"])
def test_every_march_refuses_data_of_another_grid_before_its_first_step(monkeypatch, case):
    def no_step(*args):
        raise AssertionError("an RK4 step was started")

    for module in (gn1d.time_integrator, gn1d.linearized):
        monkeypatch.setattr(module, "_rk4", no_step)
    g64, g32 = Grid(64, 20.0), Grid(32, 20.0)
    params = Parameters(0.2, 0.5, h0=0.4)
    hump64, hump32 = gaussian_hump(0.3, 2.0, g64), gaussian_hump(0.3, 2.0, g32)
    flat64, flat32, control = Bathymetry.flat(g64), Bathymetry.flat(g32), StepControl(t_end=0.5)
    with pytest.raises(ValueError, match=r"has 32 nodes, the grid 64$"):
        if case == "reference":
            ref = ReferenceTrajectory.constant(hump32, 1.0)
            solve_linear(ref, hump64, flat64, params, g64, control, dt=0.01)
        elif case == "linear state":
            ref = ReferenceTrajectory.constant(hump64, 1.0)
            solve_linear(ref, hump32, flat64, params, g64, control, dt=0.01)
        elif case == "run":
            run(hump32, flat32, params, g64, control)
        else:
            picard_solve(hump32, flat32, params, g64, control)


def test_no_drawn_library_call_raises_warns_or_ends_unlabeled(monkeypatch):
    steps = []
    for module in (gn1d.time_integrator, gn1d.linearized):
        real_rk4 = module._rk4

        def counted(*args, real_rk4=real_rk4):
            steps.append(args)
            assert len(steps) <= 200, "a drawn call started a long march"
            return real_rk4(*args)

        monkeypatch.setattr(module, "_rk4", counted)
    rng = np.random.default_rng(SEED)
    ends = set()
    for _ in range(CALLS):
        call = _draw(rng)
        steps.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = _call(*call)
            except ValueError:
                assert not steps, f"{call}: ValueError after {len(steps)} RK4 steps"
                ends.add("ValueError")
            else:
                assert isinstance(out, RunOutcome), call
                assert out.completed or out.reason, f"{call}: {out.status} with no reason"
                if out.completed:
                    arg = {**BASE, **call[3]}
                    end = out.final_state.time if call[0] == "run" else out.trajectory.t1
                    tol = StepControl(arg["t_end"]).end_tolerance(arg["t0"])
                    assert abs(end - arg["t_end"]) <= tol, f"{call}: completed at {end}"
                ends.add(out.status)
        assert not caught, f"{call} warned: {[str(w.message) for w in caught]}"
    # the draws reach a refusal, a completed march and a step-length stop
    assert {"ValueError", "completed", "blowup_norm"} <= ends
