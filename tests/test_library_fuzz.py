"""Seeded library fuzz: every march ends in a labeled outcome or refuses at entry.

A fixed seed draws calls of run, solve_linear and picard_solve on small
grids (n <= 32) and sets one or two of each call's arguments to a value
from an extreme pool: a StepControl field, a caller's step dt, the
Picard iteration cap and tolerance, the norm index s, run's norm ceiling
factor, a mollifier's cutoff scale delta, the march's start time t0 (NaN
and infinite ones included), the amplitude of its hump, the position x0
of its hump and bar, or its grid's node count (a float or a string).  A
linear march may instead start a short span before t_end, about a
reference that ends half its end tolerance before t_end.  Whatever the
values, each call must return a RunOutcome or raise ValueError before
its first RK4 step, nothing else may raise or warn on the way, and a
completed march must end within its end tolerance of t_end.  No pool
value starts a long march: t_end never exceeds the base run's, the
iteration cap is small or refused, a start before 0 lengthens the span
to at most 1.1 or else ends a march after one step, a short span only
shortens it, and a step is only ever shortened, which ends a march after
one step.
"""

import math
import warnings

import numpy as np
import pytest

import gn1d.linearized
import gn1d.time_integrator
from gn1d import Bathymetry, Grid, Parameters, State, bar_bathymetry, gaussian_hump
from gn1d.linearized import ReferenceTrajectory, cutoff_symbol, picard_solve, solve_linear
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
    "x0": (math.nan, math.inf, -math.inf, 1e308),
    "n": (16.0, "16"),
    # a start this span before t_end, where 1e-9 of the span is below the
    # reference's shortfall at the two shorter ones
    "span": (1e-11, 1e-6, 0.05),
}
# the arguments each march takes
_BUILT = ("t0", "amplitude", "x0", "n")
ARGS = {
    "run": ("t_end", "cfl", "dt_max", "s", "norm_factor", *_BUILT),
    "solve_linear": ("t_end", "cfl", "dt_max", "dt", "delta", "span", *_BUILT),
    "picard_solve": ("t_end", "cfl", "dt_max", "max_iters", "tol", "s", "delta", *_BUILT),
}
BASE = {
    "t_end": 0.1, "cfl": 0.5, "dt_max": math.inf, "max_iters": 3, "tol": 1e-8, "s": 2.0,
    "norm_factor": 1e3, "t0": 0.0, "amplitude": 0.3, "x0": None,
}


def _draw(rng: np.random.Generator) -> tuple[str, int, bool, dict]:
    """A march, its grid size, whether its bottom has a bar, and one or two
    of its arguments set from their pools."""
    march = str(rng.choice(sorted(ARGS)))
    keys = rng.choice(ARGS[march], size=rng.integers(1, 3), replace=False)
    drawn = {str(key): POOLS[str(key)][rng.integers(len(POOLS[str(key)]))] for key in keys}
    return march, int(rng.choice((8, 16, 32))), bool(rng.integers(2)), drawn


def _arguments(drawn: dict) -> dict:
    """The drawn arguments over BASE; a drawn span sets the start t0."""
    arg = {**BASE, **drawn}
    if "span" in arg:
        arg["t0"] = arg["t_end"] - arg["span"]
    return arg


def _call(march: str, n: int, bar: bool, drawn: dict):
    """Build the drawn call's arguments and make it; the arguments' own
    checks (Grid, the builders, StepControl, cutoff_symbol, ReferenceTrajectory)
    are part of its entry."""
    arg = _arguments(drawn)
    grid = Grid(arg.get("n", n), 2.0 * np.pi)
    params = Parameters(0.2, 0.5, h0=0.4)
    bottom = bar_bathymetry(0.2, 0.8, grid, arg["x0"]) if bar else Bathymetry.flat(grid)
    hump = State(gaussian_hump(arg["amplitude"], 0.5, grid, arg["x0"]).zu, arg["t0"])
    control = StepControl(t_end=arg["t_end"], cfl=arg["cfl"], dt_max=arg["dt_max"])
    mollifier = cutoff_symbol(arg["delta"], grid) if "delta" in arg else None
    if march == "run":
        return run(hump, bottom, params, grid, control, arg["s"], arg["norm_factor"])
    if march == "solve_linear":
        ref = ReferenceTrajectory.constant(hump, control.t_end)
        if "span" in arg:
            end = control.t_end - 0.5 * control.end_tolerance(hump.time)
            ref = ReferenceTrajectory([hump.time, end], [hump.zu] * 2)
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
                    arg = _arguments(call[3])
                    end = out.final_state.time if call[0] == "run" else out.trajectory.t1
                    tol = StepControl(arg["t_end"]).end_tolerance(arg["t0"])
                    assert abs(end - arg["t_end"]) <= tol, f"{call}: completed at {end}"
                ends.add(out.status)
        assert not caught, f"{call} warned: {[str(w.message) for w in caught]}"
    # the draws reach a refusal, a completed march and a step-length stop
    assert {"ValueError", "completed", "blowup_norm"} <= ends
