"""Linearization about a reference trajectory, mollified variant, iteration.

The linear solver advances U_t + A[Ubar(t)] U_x + B(Ubar(t)) = 0, where
the coefficient state Ubar is interpolated from stored snapshots.  With a
frequency cutoff J applied around the advection map the system becomes
U_t + J A[Ubar] J U_x + B(Ubar) = 0, which is the regularized problem the
cutoff-removal study solves on a shrinking ladder of cutoff scales.  The
fixed-point iteration re-feeds each linear solution as the next
coefficient trajectory, starting from the constant-in-time initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, compute_depth, require_depth
from .diagnostics import es_norm
from .gn_rhs import FrozenState, coefficient_fields, condensed_tendency
from .grid_ops import apply_symbol
from .t_operator import assemble_T
from .time_integrator import StepControl, _rk4, cfl_dt, max_wave_speed


def cutoff_profile(r) -> np.ndarray:
    """Smooth frequency cutoff: 1 on [0, 1], 0 on [2, inf), C^inf between.

    The transition uses the standard exp(-1/t) bump bridge, so every
    derivative vanishes at both ends of [1, 2].
    """
    r = np.abs(np.asarray(r, dtype=float))
    t = 2.0 - r  # rescaled transition coordinate, 1 -> keep, 0 -> drop
    ga = np.zeros_like(t)
    m = t > 0.0
    ga[m] = np.exp(-1.0 / t[m])
    gb = np.zeros_like(t)
    m = (1.0 - t) > 0.0
    gb[m] = np.exp(-1.0 / (1.0 - t[m]))
    out = ga / (ga + gb)
    out[r <= 1.0] = 1.0
    out[r >= 2.0] = 0.0
    return out


@dataclass(frozen=True)
class Mollifier:
    """Fourier-side cutoff at scale delta: multiplier phi(delta |k|)."""

    symbol: np.ndarray

    @classmethod
    def for_grid(cls, delta: float, grid: Grid) -> "Mollifier":
        if not 0.0 < delta < math.inf:
            raise ValueError(f"cutoff scale must be positive and finite, got {delta}")
        return cls(cutoff_profile(delta * grid.wavenumbers()))


def mollify(f: np.ndarray, m: Mollifier, grid: Grid) -> np.ndarray:
    return apply_symbol(f, m.symbol, grid)


class ReferenceTrajectory:
    """Time-stamped snapshots with linear interpolation between them.

    fields is one (m, 2, n) stack, row j the pair (zeta, u) at times[j];
    at(times) returns the (len(times), 2, n) stack of interpolants.
    """

    def __init__(self, times: np.ndarray, fields: np.ndarray):
        times = np.asarray(times, dtype=float)
        fields = np.asarray(fields, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a trajectory needs at least two snapshots")
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
        t = np.clip(t, self.t0, self.t1)
        j = np.minimum(np.searchsorted(self.times, t, side="right") - 1, self.times.size - 2)
        w = ((t - self.times[j]) / (self.times[j + 1] - self.times[j]))[:, None, None]
        return (1.0 - w) * self.fields[j] + w * self.fields[j + 1]


def solve_linear(
    ref: ReferenceTrajectory,
    initial: State,
    bathymetry: Bathymetry,
    params: Parameters,
    grid: Grid,
    control: StepControl,
    mollifier: Mollifier | None = None,
    dt: float | None = None,
) -> ReferenceTrajectory:
    """March the linearized system with fixed uniform steps.

    Raises DepthError unless every reference snapshot is admissible.  The
    step is chosen once from the reference coefficients (or passed in),
    then rounded down so the span divides evenly; snapshots are stored at
    every step so the result can serve as the next reference.
    """
    ref_h = compute_depth(ref.fields[:, 0], bathymetry, params)
    # every snapshot must itself be admissible; interpolants then are too
    require_depth(ref_h, params)
    t0 = ref.t0
    span = control.t_end - t0
    if span <= 0.0:
        raise ValueError(f"t_end {control.t_end} does not exceed trajectory start {t0}")
    if ref.t1 < control.t_end - 1e-12 * max(abs(control.t_end), 1.0):
        raise ValueError(
            f"reference trajectory ends at {ref.t1}, before t_end {control.t_end}"
        )
    if dt is None:
        dt = control.step_for(max_wave_speed(ref.fields[:, 1], ref_h, params), grid.dx)
    m = max(1, math.ceil(span / dt - 1e-12))
    dt = span / m

    zu = initial.zu
    fields = [zu]
    cut = None if mollifier is None else (lambda f: mollify(f, mollifier, grid))
    block = max(1, 2**17 // grid.n)  # steps per block: a stage stack holds about 2^18 values

    end = None  # the frozen state at the last step's end, which starts the next step
    for j0 in range(0, m, block):
        # the coefficient states of a block of steps, one row per stage time:
        # each step's offsets 1/2 and 1 (stages 2 and 3 share the midpoint),
        # with t0 in front in the first block only
        starts = t0 + dt * np.arange(j0, min(j0 + block, m))
        stage_times = np.stack((starts + 0.5 * dt, starts + dt), axis=1).ravel()
        if end is None:
            stage_times = np.append(t0, stage_times)
        coeff = ref.at(stage_times)
        coeff_h = compute_depth(coeff[:, 0], bathymetry, params)
        coeff_fields = coefficient_fields(coeff_h, coeff[:, 1], bathymetry, params, grid)
        frozen = (
            FrozenState(assemble_T(h, bathymetry, params, grid), coeff_fields.row(i))
            for i, h in enumerate(coeff_h)
        )
        if end is None:
            end = next(frozen)
        for mid, stop in zip(frozen, frozen):  # two rows per step, built as the step reaches them
            states = (end, mid, stop)  # at offsets 0, 1/2, 1

            def tendency(c, y):
                return condensed_tendency(states[int(2 * c)], y, cut)

            zu = zu + _rk4(zu, dt, grid, tendency)
            fields.append(zu)
            end = stop
    times = t0 + dt * np.arange(m + 1)
    return ReferenceTrajectory(times, fields)


@dataclass
class PicardResult:
    trajectory: ReferenceTrajectory
    gaps: list[float]
    converged: bool
    iterations: int


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
) -> PicardResult:
    """Fixed-point iteration on the linearized flow.

    Iterate zero is the initial state frozen in time; each pass solves
    the system linearized about the previous iterate.  The gap between
    consecutive iterates is the sup over snapshot times of the energy
    norm weighted at the previous iterate's coefficients.
    """
    dt = cfl_dt(initial, bathymetry, params, grid, control)

    ref = ReferenceTrajectory.constant(initial, control.t_end)
    gaps: list[float] = []
    for it in range(1, max_iters + 1):
        sol = solve_linear(
            ref, initial, bathymetry, params, grid, control, mollifier, dt=dt
        )
        prev = ref.at(sol.times)
        prev_h = compute_depth(prev[:, 0], bathymetry, params)
        # np.max carries a NaN norm through, so a NaN gap never converges
        gap = float(np.max([
            es_norm(d, h, bathymetry, params, grid, s)
            for d, h in zip(sol.fields - prev, prev_h)
        ]))
        gaps.append(gap)
        ref = sol
        if gap <= tol:
            return PicardResult(sol, gaps, True, it)
    return PicardResult(ref, gaps, False, max_iters)
