"""Linearization about a reference trajectory, mollified variant, iteration.

The linear solver advances U_t + A[Ubar(t)] U_x + B(Ubar(t)) = 0, where
the coefficient state Ubar is interpolated from stored snapshots.  With a
frequency cutoff J applied around the advection map the system becomes
U_t + J A[Ubar] J U_x + B(Ubar) = 0, which is the regularized problem the
cutoff-removal study solves on a shrinking ladder of cutoff scales.  The
fixed-point iteration re-feeds each linear solution as the next
coefficient trajectory, starting from the constant-in-time initial state.
The march reads its frozen coefficient states in time order at one array
of node times t0 + dt * (i / 2), whose even nodes stamp its trajectory;
gn_rhs.frozen_states builds them one block of nodes at a time.
Both end as run() does: in a labeled RunOutcome with no numpy warning,
at the end tolerance their own start sets; Picard adds not_converged.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .core import (
    Bathymetry, Grid, Parameters, State, StopError, compute_depth, quiet_overflow, require_depth,
)
from .diagnostics import es_norm
from .gn_rhs import FrozenState, condensed_tendency, frozen_states
from .grid_ops import apply_symbol
from .time_integrator import (
    RunOutcome, StepControl, _rk4, cfl_dt, require_march, require_step,
)


@quiet_overflow
def cutoff_profile(r) -> np.ndarray:
    """Smooth frequency cutoff: 1 on [0, 1], 0 on [2, inf), C^inf between.

    The transition uses the standard exp(-1/t) bump bridge, so every
    derivative vanishes at both ends of [1, 2].
    """
    t = 2.0 - np.abs(np.asarray(r, dtype=float))  # 1 -> keep, 0 -> drop
    # with t clamped at 0, exp(-1/t) is exp(-inf) = 0 wherever t <= 0
    ga = np.exp(-1.0 / np.maximum(t, 0.0))
    gb = np.exp(-1.0 / np.maximum(1.0 - t, 0.0))
    return ga / (ga + gb)


@dataclass(frozen=True)
class Mollifier:
    """Fourier-side cutoff at scale delta: multiplier phi(delta |k|)."""

    symbol: np.ndarray

    @classmethod
    @quiet_overflow
    def for_grid(cls, delta: float, grid: Grid) -> "Mollifier":
        if not 0.0 < delta < math.inf:
            raise ValueError(f"cutoff scale must be positive and finite, got {delta}")
        return cls(cutoff_profile(delta * grid.wavenumbers()))


def mollify(f: np.ndarray, m: Mollifier, grid: Grid) -> np.ndarray:
    return apply_symbol(f, m.symbol, grid)


class ReferenceTrajectory:
    """Time-stamped snapshots with linear interpolation between them.

    fields is one (m, 2, n) stack, row j the pair (zeta, u) at times[j];
    at(times) returns the (len(times), 2, n) stack of interpolants.  At a
    snapshot's time the interpolant is that snapshot exactly, and a
    constant reference (two equal snapshots) returns its state exactly at
    every time.
    """

    def __init__(self, times: np.ndarray, fields: np.ndarray):
        times = np.asarray(times, dtype=float)
        fields = np.asarray(fields, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a trajectory needs at least two snapshots")
        if not np.all(np.isfinite(times)):
            raise ValueError("snapshot times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        if fields.ndim != 3 or fields.shape[:2] != (times.size, 2):
            raise ValueError(f"snapshots must be an (m, 2, n) stack, got {fields.shape}")
        self.times = times
        self.fields = fields

    @classmethod
    def from_states(cls, states: list[State]) -> "ReferenceTrajectory":
        return cls([st.time for st in states], [st.zu for st in states])

    @classmethod
    def constant(cls, state: State, t_end: float) -> "ReferenceTrajectory":
        return cls([state.time, t_end], [state.zu] * 2)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def at(self, times) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        span = self.t1 - self.t0
        out = ~((t >= self.t0 - 1e-9 * span) & (t <= self.t1 + 1e-9 * span))
        if np.any(out):
            raise ValueError(f"time {t[out][0]} outside trajectory range [{self.t0}, {self.t1}]")
        if self.times.size == 2 and np.array_equal(*self.fields):
            return np.repeat(self.fields[:1], t.size, axis=0)
        t = np.clip(t, self.t0, self.t1)
        j = np.minimum(np.searchsorted(self.times, t, side="right") - 1, self.times.size - 2)
        w = ((t - self.times[j]) / (self.times[j + 1] - self.times[j]))[:, None, None]
        return (1.0 - w) * self.fields[j] + w * self.fields[j + 1]


def _frozen_stream(
    ref: ReferenceTrajectory, nodes: np.ndarray, bathymetry: Bathymetry, params: Parameters,
    grid: Grid,
) -> Iterator[FrozenState]:
    """The frozen coefficient states at a march's node times, in time order.
    Each node is read from ref no later than ref.t1, since the march's entry
    admits a reference that ends within the end tolerance before t_end.
    They are read in blocks of 2 (2^17 // n) nodes, so a long march holds
    one block's stage stack (about 2^19 values) beside its trajectory."""
    block = 2 * max(1, 2**17 // grid.n)
    for i0 in range(0, nodes.size, block):
        times = np.minimum(nodes[i0:i0 + block], ref.t1)
        yield from frozen_states(ref.at(times), bathymetry, params, grid)


@quiet_overflow
def solve_linear(
    ref: ReferenceTrajectory,
    initial: State,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
    control: StepControl,
    mollifier: Mollifier | None = None,
    dt: float | None = None,
) -> RunOutcome:
    """March the linearized system with fixed uniform steps.

    The step is chosen once from the reference coefficients, or passed in,
    when it must be positive; it is rounded down so the span divides evenly.
    A step below the end tolerance is taken as it is, once: the march stops
    after it, as run() does.  Node i = 0 ... 2m sits at t0 + dt * (i / 2),
    and a snapshot is kept at every even node, so the trajectory can serve
    as the next reference.  A stage assembles each coefficient state's
    operator, which checks its depth.  The march starts at ref.t0, where the
    initial state must lie; the state, bottom, reference and mollifier must
    be built for grid, and the reference must reach t_end's end tolerance.
    """
    t0 = ref.t0
    if initial.time != t0:
        raise ValueError(f"initial state at t = {initial.time} is not at the reference start {t0}")
    require_march(initial, bathymetry, grid, control, reference=ref.fields)
    if mollifier is not None and mollifier.symbol.shape != (grid.n // 2 + 1,):
        raise ValueError(
            f"mollifier has {mollifier.symbol.size} wavenumbers, the grid {grid.n // 2 + 1}"
        )
    span, tol = control.t_end - t0, control.end_tolerance(t0)
    if ref.t1 < control.t_end - tol:
        raise ValueError(f"reference trajectory ends at {ref.t1}, before t_end {control.t_end}")
    if dt is None:
        h = compute_depth(ref.fields[:, 0], bathymetry, params)
        dt = cfl_dt(ref.fields[:, 1], h, params, grid, control)
    elif not dt > 0.0:
        raise ValueError(f"step dt must be positive, got {dt}")
    m = 1  # a step below the end tolerance ends the march, and its count may overflow
    if dt >= tol:
        m = max(1, math.ceil(span / dt - 1e-12))
        dt = span / m

    nodes = t0 + dt * (np.arange(2 * m + 1) / 2)
    fields = [initial.zu]
    cut = None if mollifier is None else (lambda f: mollify(f, mollifier, grid))
    frozen = _frozen_stream(ref, nodes, bathymetry, params, grid)
    # the frozen states at offsets 0, 1/2 and 1 of the step, each taken when a
    # stage first needs it (stages 2 and 3 share it); the end starts the next step
    step = []

    def tendency(c, y):
        i = int(2 * c)
        if i == len(step):
            step.append(next(frozen))
        return condensed_tendency(step[i], y, cut)

    try:
        for _ in range(m):
            fields.append(fields[-1] + _rk4(fields[-1], dt, grid, tendency))
            del step[:2]
            require_step(dt, tol)
    except StopError as exc:
        steps = len(fields) - 1
        return RunOutcome(exc.status, steps=steps, reason=exc.at(nodes[2 * steps], dt))
    trajectory = ReferenceTrajectory(nodes[::2], fields)
    return RunOutcome("completed", steps=m, trajectory=trajectory)


@quiet_overflow
def picard_solve(
    initial: State,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
    control: StepControl,
    max_iters: int = 25,
    tol: float = 1e-8,
    s: float = 2.0,
    mollifier: Mollifier | None = None,
) -> RunOutcome:
    """Fixed-point iteration on the linearized flow, to a gap of at most tol
    (>= 0) in the energy norm of finite index s, in at most max_iters sweeps.

    Iterate zero is the initial state, exactly, at every time; each sweep
    solves the system linearized about the previous iterate on the same
    steps, so each step-end coefficient state is that iterate's snapshot
    exactly and only the midpoints are interpolated.  The gap
    is the sup over snapshot times of the energy norm of the difference of
    consecutive iterates, weighted by the depths the floor check took of the
    previous one; the loop holds both and derives neither again.  The outcome
    is the last sweep's, with the gaps so far; a stopped sweep is named, and
    an iterate with a snapshot below h0 ends it blowup_depth.
    """
    require_march(initial, bathymetry, grid, control)
    if not (isinstance(max_iters, Integral) and max_iters >= 1):
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    ref = ReferenceTrajectory.constant(initial, control.t_end)
    prev, prev_h = initial.zu[None], compute_depth(initial.zeta, bathymetry, params)[None]
    # a CFL step that underflows to 0 is not refused as a caller's would be:
    # solve_linear derives it again and stops after one step
    dt = cfl_dt(initial.u, prev_h, params, grid, control) or None
    gaps: list[float] = []
    for sweep in range(1, max_iters + 1):
        sol = solve_linear(ref, initial, bathymetry, params, grid, control, mollifier, dt=dt)
        if not sol.completed:
            return replace(sol, reason=f"sweep {sweep}: {sol.reason}", gaps=gaps)
        # solve_linear checks its coefficient states, not the iterate: check it earliest first
        h = compute_depth(sol.trajectory.fields[:, 0], bathymetry, params)
        try:
            for j, h_j in enumerate(h):
                require_depth(h_j, params)
        except StopError as exc:
            reason = f"sweep {sweep}: {exc.at(sol.trajectory.times[j], dt)}"
            return RunOutcome(exc.status, steps=j, reason=reason, gaps=gaps)
        # np.max carries a NaN norm through, so a NaN gap never converges
        gap = float(np.max([
            es_norm(d, h_prev, bathymetry, params, grid, s)
            for d, h_prev in zip(sol.trajectory.fields - prev, np.broadcast_to(prev_h, h.shape))
        ]))
        gaps.append(gap)
        ref, prev, prev_h = sol.trajectory, sol.trajectory.fields, h
        if gap <= tol:
            return replace(sol, gaps=gaps)
    reason = f"not converged after {max_iters} iterations"
    return replace(sol, status="not_converged", reason=reason, gaps=gaps)
