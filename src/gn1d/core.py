"""Shared value types: model parameters, periodic grid, bathymetry, state.

Everything downstream (operator assembly, right-hand sides, integrators)
is written against these containers.  Arrays are float64 throughout; the
grid is uniform and periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np


class StopError(Exception):
    """A condition that ends a run early; status is the outcome it ends with."""

    status: str
    stage = 0  # the RK4 stage (1-4) it was raised in, set by the kernel; 0 outside a stage
    offset = 0.0  # that stage's time offset c, in steps

    def at(self, t: float, dt: float) -> str:
        """The message and where it was raised, in the step of size dt from time t."""
        stage = f", RK stage {self.stage}" if self.stage else ""
        return f"{self} (t = {t + self.offset * dt:.6g}{stage})"


class DepthError(StopError):
    """Total water depth dropped below the admissibility floor h0."""

    status = "blowup_depth"

    def __init__(self, min_value: float, location: int):
        self.min_value = float(min_value)
        self.location = int(location)
        super().__init__(
            f"depth condition violated: min depth {self.min_value:.6g} "
            f"at grid index {self.location}"
        )


class FactorizationError(StopError):
    """Cholesky factorization of the elliptic operator failed.

    The operator is positive definite whenever the depth condition holds,
    so a factorization failure is reported together with the minimum depth.
    """

    status = "solver_failure"

    def __init__(self, min_depth: float):
        self.min_depth = float(min_depth)
        super().__init__(
            f"factorization failed (min depth {self.min_depth:.6g}): "
            f"operator lost positive definiteness"
        )


class NonFiniteError(StopError):
    """An array a march holds or hands to LAPACK has an infinity or a NaN.

    Raised by require_finite, for the band storage of an assembly, each
    right-hand side of a solve, and each state run() accepts.
    """

    status = "blowup_norm"

    def __init__(self, what: str, location: int):
        self.what = what
        self.location = int(location)
        super().__init__(f"non-finite value in the {what} at grid index {self.location}")


def _as_field(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Parameters:
    """Nondimensional model parameters.

    epsilon : amplitude (nonlinearity) parameter, in (0, 1].
    mu      : shallowness (dispersion) parameter, in (0, 1].
    h0      : admissibility floor for the total depth, in (0, 1].
    """

    epsilon: float
    mu: float
    h0: float = 0.5

    def __post_init__(self):
        for name in ("epsilon", "mu", "h0"):
            v = float(getattr(self, name))
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n nodes on [0, length)."""

    n: int
    length: float

    def __post_init__(self):
        # even for the real-FFT layout; d1_fd's stencil and T's nine bands need n >= 8
        if not (isinstance(self.n, Integral) and self.n >= 8 and self.n % 2 == 0):
            raise ValueError(f"grid size must be an even integer of at least 8, got n = {self.n}")
        # the wavenumbers need a spacing that does not underflow to 0 and a top
        # one, pi n / length taken as wavenumbers() takes it, that does not overflow
        length, n = float(self.length), int(self.n)
        if not (0.0 < length / n and length < np.inf
                and math.isfinite(2.0 * math.pi * (n // 2 * (1.0 / (n * (length / n)))))):
            raise ValueError(
                f"domain length must be positive and finite, with a nonzero spacing "
                f"length / n and a finite top wavenumber pi n / length, got {self.length}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """Nonnegative wavenumbers 2*pi*j/length carried by the real FFT (read-only)."""
        return _wavenumbers(self)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array held in a per-grid cache read-only and return it."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _wavenumbers(grid: Grid) -> np.ndarray:
    return read_only(2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx))


@dataclass(frozen=True)
class Bathymetry:
    """Bottom profile b and its first two derivatives on the grid nodes.

    Positive b raises the bottom (shallower water).  The derivative arrays
    are carried explicitly so that analytic profiles can supply exact
    derivatives while file-loaded profiles use spectral ones.
    """

    b: np.ndarray
    b_x: np.ndarray
    b_xx: np.ndarray

    def __post_init__(self):
        for name in ("b", "b_x", "b_xx"):
            object.__setattr__(self, name, _as_field(getattr(self, name), name))
        if not self.b.shape == self.b_x.shape == self.b_xx.shape:
            raise ValueError(
                f"bathymetry arrays must share one shape, got "
                f"{self.b.shape}, {self.b_x.shape}, {self.b_xx.shape}"
            )

    @classmethod
    def flat(cls, grid: Grid) -> "Bathymetry":
        z = np.zeros(grid.n)
        return cls(z, z.copy(), z.copy())

    @classmethod
    def from_profile(cls, b, grid: Grid) -> "Bathymetry":
        """Build from node values alone; derivatives are spectral."""
        from .grid_ops import d1_spectral

        b = _as_field(b, "b")
        if b.size != grid.n:
            raise ValueError(f"profile has {b.size} values, grid has {grid.n} nodes")
        b_x = d1_spectral(b, grid)
        return cls(b, b_x, d1_spectral(b_x, grid))


@dataclass(frozen=True)
class State:
    """Surface elevation and depth-averaged velocity at one instant, as the
    (2, n) stack zu of (zeta, u); zeta and u are views of its rows.  The
    time must be finite: a march from a NaN or infinite one never ends at t_end."""

    zu: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        zu = np.asarray(self.zu, dtype=float)
        if zu.ndim != 2 or zu.shape[0] != 2:
            raise ValueError(f"a state must be a (2, n) stack of (zeta, u), got shape {zu.shape}")
        time = float(self.time)
        if not math.isfinite(time):
            raise ValueError(f"a state's time must be finite, got {time}")
        object.__setattr__(self, "zu", zu)
        object.__setattr__(self, "time", time)

    @property
    def zeta(self) -> np.ndarray:
        return self.zu[0]

    @property
    def u(self) -> np.ndarray:
        return self.zu[1]


def compute_depth(zeta: np.ndarray, bathymetry: Bathymetry, params: Parameters) -> np.ndarray:
    """Total depth h = 1 + epsilon*(zeta - b) of one surface or an (m, n) stack of them."""
    if zeta.shape[-1:] != bathymetry.b.shape:
        raise ValueError(f"surface of shape {zeta.shape} does not end in {bathymetry.b.size} nodes")
    return 1.0 + params.epsilon * (zeta - bathymetry.b)


def require_depth(h: np.ndarray, params: Parameters) -> None:
    """Raise DepthError unless min(h) >= h0: the one depth-floor test of every march."""
    m = float(h.min())
    if not m >= params.h0:  # catches NaN as well
        raise DepthError(m, int(h.argmin()))


# gn1d's one numpy error state: a profile that overflows or divides by 0 is refused by
# its builder and a march ends through its finite checks, so a warning would only precede
# that outcome (a decorator: each call sets its own state, where a with-block cannot nest)
quiet_overflow = np.errstate(all="ignore")


def require_finite(a: np.ndarray, what: str, nodes: np.ndarray | None = None) -> None:
    """Raise NonFiniteError, naming the lowest grid index of a non-finite column of a
    (column j is node j, or nodes[j]), unless a is all finite: every march's finite test."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = np.flatnonzero(~finite.reshape(-1, a.shape[-1]).all(axis=0))
        raise NonFiniteError(what, bad[0] if nodes is None else nodes[bad].min())
