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
from .gn_rhs import condensed_tendency
from .grid_ops import apply_symbol
from .t_operator import TOperator, assemble_T
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

    delta: float
    symbol: np.ndarray

    @classmethod
    def for_grid(cls, delta: float, grid: Grid) -> "Mollifier":
        if not delta > 0.0:
            raise ValueError(f"cutoff scale must be positive, got {delta}")
        return cls(delta, cutoff_profile(delta * grid.wavenumbers()))


def mollify(f: np.ndarray, m: Mollifier, grid: Grid) -> np.ndarray:
    return apply_symbol(f, m.symbol, grid)


class ReferenceTrajectory:
    """Time-stamped snapshots with linear interpolation between them."""

    def __init__(self, times: np.ndarray, zetas: np.ndarray, us: np.ndarray):
        times = np.asarray(times, dtype=float)
        zetas = np.asarray(zetas, dtype=float)
        us = np.asarray(us, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a trajectory needs at least two snapshots")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        if zetas.shape != (times.size, us.shape[1]) or us.shape != zetas.shape:
            raise ValueError(
                f"snapshot arrays must be (m, n) alike, got {zetas.shape} and {us.shape}"
            )
        self.times = times
        self.zetas = zetas
        self.us = us

    @classmethod
    def from_states(cls, states: list[State]) -> "ReferenceTrajectory":
        return cls(
            np.array([st.time for st in states]),
            np.stack([st.zeta for st in states]),
            np.stack([st.u for st in states]),
        )

    @classmethod
    def constant(cls, state: State, t_end: float) -> "ReferenceTrajectory":
        times = np.array([state.time, t_end])
        return cls(times, np.stack([state.zeta] * 2), np.stack([state.u] * 2))

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> State:
        span = self.t1 - self.t0
        if t < self.t0 - 1e-9 * span or t > self.t1 + 1e-9 * span:
            raise ValueError(f"time {t} outside trajectory range [{self.t0}, {self.t1}]")
        t = min(max(t, self.t0), self.t1)
        j = int(np.searchsorted(self.times, t, side="right") - 1)
        j = min(j, self.times.size - 2)
        w = (t - self.times[j]) / (self.times[j + 1] - self.times[j])
        return State(
            (1.0 - w) * self.zetas[j] + w * self.zetas[j + 1],
            (1.0 - w) * self.us[j] + w * self.us[j + 1],
            t,
        )

    def validate_depth(self, bathymetry: Bathymetry, params: Parameters) -> None:
        """Every snapshot must itself be admissible; interpolants then are too."""
        for j in range(self.times.size):
            require_depth(
                1.0 + params.epsilon * (self.zetas[j] - bathymetry.b), params
            )

    def max_speed(self, bathymetry: Bathymetry, params: Parameters) -> float:
        h = 1.0 + params.epsilon * (self.zetas - bathymetry.b)
        return max_wave_speed(self.us, h, params)


def _frozen_coefficients(
    ref: ReferenceTrajectory, t: float, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> tuple[TOperator, np.ndarray]:
    """The coefficient state (op, u) frozen at time t: T at its depth, and its velocity."""
    coeff = ref.state_at(t)
    return assemble_T(compute_depth(coeff, bathymetry, params), bathymetry, params, grid), coeff.u


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

    The step is chosen once from the reference coefficients (or passed
    in), then rounded down so the span divides evenly; snapshots are
    stored at every step so the result can serve as the next reference.
    """
    ref.validate_depth(bathymetry, params)
    t0 = ref.t0
    span = control.t_end - t0
    if span <= 0.0:
        raise ValueError(f"t_end {control.t_end} does not exceed trajectory start {t0}")
    if ref.t1 < control.t_end - 1e-12 * max(abs(control.t_end), 1.0):
        raise ValueError(
            f"reference trajectory ends at {ref.t1}, before t_end {control.t_end}"
        )
    if dt is None:
        dt = control.step_for(ref.max_speed(bathymetry, params), grid.dx)
    m = max(1, math.ceil(span / dt - 1e-12))
    dt = span / m

    z, u = initial.zeta.copy(), initial.u.copy()
    zetas, us = [z], [u]
    cutoff = None if mollifier is None else mollifier.symbol
    # coefficient operators are frozen per stage offset; stages 2 and 3
    # share the midpoint, and the step-end pair rolls over as the next start
    start = _frozen_coefficients(ref, t0, bathymetry, params, grid)
    for j in range(m):
        t = t0 + dt * j
        frozen = {
            0.0: start,
            0.5: _frozen_coefficients(ref, t + 0.5 * dt, bathymetry, params, grid),
            1.0: _frozen_coefficients(ref, t + dt, bathymetry, params, grid),
        }
        start = frozen[1.0]

        def tendency(c, stage_z, stage_u):
            return condensed_tendency(*frozen[c], stage_z, stage_u, cutoff)

        dz, du = _rk4(z, u, dt, grid, tendency)
        z = z + dz
        u = u + du
        zetas.append(z)
        us.append(u)
    times = t0 + dt * np.arange(m + 1)
    return ReferenceTrajectory(times, np.stack(zetas), np.stack(us))


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
        gap = 0.0
        for j in range(sol.times.size):
            t = float(sol.times[j])
            prev = ref.state_at(t)
            diff = State(sol.zetas[j] - prev.zeta, sol.us[j] - prev.u, t)
            gap = max(gap, es_norm(diff, prev, bathymetry, params, grid, s))
        gaps.append(gap)
        ref = sol
        if gap <= tol:
            return PicardResult(sol, gaps, True, it)
    return PicardResult(ref, gaps, False, max_iters)
