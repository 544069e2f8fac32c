"""Classical fourth-order time stepping with safety monitors.

The dispersive operator is reassembled and refactorized at every stage,
so the scheme sees the fully nonlinear depth coupling.  Stage tendencies
are truncated to the alias-free band (the 2/3 rule): collocation
products spill aliased energy into the top third of the spectrum, where
the finite-difference symbol inside the elliptic operator is too weak to
regularize it, and without the truncation that band grows until the norm
monitor trips.  Runs terminate early (with a labeled outcome, never an
exception or a numpy warning) when the depth drops below the floor, the
factorization fails, or the solution norm blows up (a stage whose state or
tendency overflows to a non-finite value, or a step that falls below the
end tolerance, counts as a norm blow-up).  Stage errors and tripped
post-step monitors raise a StopError alike; one handler ends the run
with the error's status and keeps its message, with the time and RK
stage, as the reason.  A run refuses, with a ValueError, a start that
does not precede t_end, since no march from there can end at t_end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Bathymetry,
    Grid,
    Parameters,
    State,
    StopError,
    compute_depth,
    quiet_overflow,
    require_depth,
    require_finite,
)
from .diagnostics import DiagnosticRecord, record_for
from .gn_rhs import nonlinear_rhs
from .grid_ops import dealias


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: dt = min(dt_max, cfl * dx / max wave speed)."""

    t_end: float
    cfl: float = 0.5
    dt_max: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")

    def end_tolerance(self, t0: float) -> float:
        """A march from t0 ends within this of t_end: 1e-12 of t_end or of the
        span from t0 (scaled termwise, never inf), whichever is longer, and at
        least the smallest positive double, so a step of 0 is shorter."""
        return max(1e-12 * self.t_end, 1e-12 * self.t_end - 1e-12 * t0, math.ulp(0.0))

    def pending(self, t: float, tol: float) -> bool:
        """Whether a march at time t, whose end tolerance is tol, has a step
        left to take: run()'s end rule, false once t is within tol of t_end."""
        return t < self.t_end - tol


def cfl_dt(
    u: np.ndarray, h: np.ndarray, params: Parameters, grid: Grid, control: StepControl
) -> float:
    """The step min(dt_max, cfl dx / max(eps |u| + sqrt(h))) over the velocity
    and depth of one state or (m, n) stacks of them; dt_max when every speed is 0."""
    speed = float(np.max(params.epsilon * np.abs(u) + np.sqrt(np.maximum(h, 0.0))))
    return control.dt_max if speed <= 0.0 else min(control.dt_max, control.cfl * grid.dx / speed)


def _rk4(zu: np.ndarray, dt: float, grid: Grid, tendency) -> np.ndarray:
    """Increment of one classical Runge-Kutta step of the (2, n) stack zu.

    tendency(c, y) is evaluated at stage time t + c dt on the stage stack
    y and returns a (2, n) stack, which is truncated to the alias-free band
    (both fields in one transform pair).  A StopError raised inside stage k
    leaves tagged with k and c.
    """
    def stage(k, c, y):
        try:
            return dealias(tendency(c, y), grid)
        except StopError as exc:
            exc.stage, exc.offset = k, c
            raise

    k1 = stage(1, 0.0, zu)
    k2 = stage(2, 0.5, zu + 0.5 * dt * k1)
    k3 = stage(3, 0.5, zu + 0.5 * dt * k2)
    k4 = stage(4, 1.0, zu + dt * k3)
    return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(
    state: State, dt: float, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> State:
    """One classical Runge-Kutta step; raises on depth or factorization loss."""
    increment = _rk4(state.zu, dt, grid, lambda c, y: nonlinear_rhs(y, bathymetry, params, grid))
    return State(state.zu + increment, state.time + dt)


class _MonitorError(StopError):
    """A monitor of an accepted step tripped: the X^s norm passed the run's
    ceiling, or the step fell below the end tolerance."""

    status = "blowup_norm"


def require_step(dt: float, tol: float) -> None:
    """Stop a march whose step is shorter than its end tolerance tol (NaN
    included): from a start <= 0 it would take over 1e12 such steps to t_end."""
    if not dt >= tol:
        raise _MonitorError(f"step {dt:.3g} is shorter than the end tolerance {tol:.3g}")


def require_march(
    initial: State, bathymetry: Bathymetry, grid: Grid, control: StepControl, **fields: np.ndarray
) -> None:
    """Refuse, with a ValueError, a march whose start does not precede t_end,
    then one whose state, bottom or extra field's last axis is not grid.n
    nodes: the one entry test of run, solve_linear and picard_solve."""
    if not initial.time < control.t_end:
        raise ValueError(f"t_end {control.t_end} does not exceed the start {initial.time}")
    for name, a in dict(state=initial.zu, bottom=bathymetry.b, **fields).items():
        if a.shape[-1] != grid.n:
            raise ValueError(f"{name} has {a.shape[-1]} nodes, the grid {grid.n}")


@dataclass
class RunOutcome:
    """How a march (run, solve_linear or picard_solve) ended, after steps steps."""

    status: str  # completed | blowup_depth | blowup_norm | solver_failure | not_converged
    final_state: State | None = None  # run()'s last state; history holds its records
    history: list[DiagnosticRecord] = field(default_factory=list)
    steps: int = 0
    reason: str = ""  # why an early stop happened; empty when completed
    trajectory: object = None  # a completed linear march's ReferenceTrajectory
    gaps: list[float] = field(default_factory=list)  # of Picard's completed sweeps

    @property
    def completed(self) -> bool:
        return self.status == "completed"


@quiet_overflow
def run(
    initial: State,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
    control: StepControl,
    s: float = 2.0,
    norm_factor: float = 1e3,
    on_state=lambda step, state: None,
) -> RunOutcome:
    """March the nonlinear system to t_end with adaptive CFL steps from the
    initial state, whose time must precede t_end and whose nodes, as the
    bottom's, must be grid's (require_march).
    The norm index s must be finite and norm_factor, the X^s norm's
    ceiling as a multiple of its initial value, positive.

    A diagnostic record is appended after every accepted step, and
    on_state(step, state) is called with the initial state (step 0) and
    with every accepted step.
    """
    require_march(initial, bathymetry, grid, control)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not norm_factor > 0.0:
        raise ValueError(f"norm_factor must be positive, got {norm_factor}")
    state = initial
    h = compute_depth(state.zeta, bathymetry, params)
    history = [record_for(state, h, bathymetry, params, grid, s)]
    norm_ceiling = norm_factor * max(history[0].xs, 1e-300)
    on_state(0, state)

    steps, tol = 0, control.end_tolerance(initial.time)
    while control.pending(state.time, tol):
        dt = min(cfl_dt(state.u, h, params, grid, control), control.t_end - state.time)
        try:
            state = rk4_step(state, dt, bathymetry, params, grid)
            steps += 1
            require_finite(state.zu, "state")
            h = compute_depth(state.zeta, bathymetry, params)
            rec = record_for(state, h, bathymetry, params, grid, s)
            history.append(rec)
            require_depth(h, params)
            if not rec.xs <= norm_ceiling:
                raise _MonitorError(f"X^s norm {rec.xs:.6g} exceeds the ceiling {norm_ceiling:.6g}")
            require_step(dt, tol)
        except StopError as exc:
            return RunOutcome(exc.status, state, history, steps, exc.at(state.time, dt))
        on_state(steps, state)
    return RunOutcome("completed", state, history, steps)
