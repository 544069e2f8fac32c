"""Canonical initial conditions and bottom profiles.

build_scenario builds each scenario named in SCENARIOS as a (State,
Bathymetry) pair for a given grid and parameter set.  Profiles that
decay (solitary wave, humps, bars) are placed by a wrapped coordinate so
they respect the periodic seam; the solitary-wave builder refuses
domains whose seam values are not negligible, since the profile is only
an exact traveling solution on the whole line.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .core import Bathymetry, Grid, Parameters, State, quiet_overflow

# largest relative size a solitary profile may keep at the periodic seam
SEAM_TOL = 1e-12


def _placed(grid: Grid, x0: float | None) -> float:
    """x0, or the centre of the domain when x0 is None; a non-finite x0 is refused."""
    if x0 is not None and not np.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    return 0.5 * grid.length if x0 is None else x0


def _wrapped_offset(grid: Grid, x0: float | None) -> np.ndarray:
    """Signed distance to _placed(grid, x0) along the shorter way around the circle."""
    x0, length = _placed(grid, x0), grid.length
    return (grid.nodes() - x0 + 0.5 * length) % length - 0.5 * length


@quiet_overflow
def solitary_wave(
    amplitude: float,
    params: Parameters,
    grid: Grid,
    x0: float | None = None,
) -> State:
    """Right-moving solitary wave over a flat bottom.

    zeta = a sech^2(kappa (x - x0)),  u = c zeta / (1 + eps zeta),
    kappa = sqrt(3 eps a / (4 mu (1 + eps a))),  c = sqrt(1 + eps a).

    The domain must be long enough that the profile's relative size at
    the periodic seam is below SEAM_TOL.
    """
    if not amplitude > 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    eps, mu = params.epsilon, params.mu
    kappa = np.sqrt(3.0 * eps * amplitude / (4.0 * mu * (1.0 + eps * amplitude)))
    if not np.isfinite(kappa):
        raise ValueError(f"amplitude {amplitude} overflows the solitary-wave width")
    # on a long domain cosh^2 overflows to inf where sech^2 is below the
    # smallest double; 1 / inf = 0 is then the right value
    seam = 1.0 / np.cosh(kappa * 0.5 * grid.length) ** 2
    if seam > SEAM_TOL:
        raise ValueError(
            f"domain too short for a clean solitary wave: seam value {seam:.3e} "
            f"exceeds {SEAM_TOL:.3e}; lengthen the domain"
        )
    c = np.sqrt(1.0 + eps * amplitude)
    if not np.isfinite(float(c) * float(amplitude)):  # bounds c zeta, since zeta <= amplitude
        raise ValueError(f"amplitude {amplitude} overflows the solitary-wave velocity")
    r = _wrapped_offset(grid, x0)
    zeta = amplitude / np.cosh(kappa * r) ** 2
    return State(np.array((zeta, c * zeta / (1.0 + eps * zeta))))


def _require_finite(what: str, *profiles: np.ndarray) -> None:
    if not all(np.all(np.isfinite(p)) for p in profiles):
        raise ValueError(f"{what} gives a non-finite profile or derivative on this grid")


@quiet_overflow
def _gaussian(
    name: str, height: float, width: float, grid: Grid, x0: float | None
) -> tuple[np.ndarray, np.float64, np.ndarray]:
    """height exp(-r^2 / (2 width^2)) about x0, with the wrapped offset r
    and the width as a numpy float: (r, width, profile)."""
    if not width > 0.0:
        raise ValueError(f"{name} width must be positive, got {width}")
    r = _wrapped_offset(grid, x0)
    # a numpy width makes an extreme one overflow to inf, not raise; the
    # powers are the same libm calls, so every value keeps its bits
    width = np.float64(width)
    return r, width, height * np.exp(-(r**2) / (2.0 * width**2))


def gaussian_hump(
    amplitude: float, width: float, grid: Grid, x0: float | None = None
) -> State:
    """Resting hump of water; splits into two counter-propagating waves."""
    _, width, zeta = _gaussian("hump", amplitude, width, grid, x0)
    _require_finite(f"hump width {width:g}", zeta)
    return State(np.array((zeta, np.zeros(grid.n))))


@quiet_overflow
def bar_bathymetry(
    height: float, width: float, grid: Grid, x0: float | None = None
) -> Bathymetry:
    """Gaussian bar with analytic first and second derivatives."""
    r, width, b = _gaussian("bar", height, width, grid, x0)
    b_x = -(r / width**2) * b
    b_xx = (r**2 / width**4 - 1.0 / width**2) * b
    _require_finite(f"bar width {width:g}", b, b_x, b_xx)
    return Bathymetry(b, b_x, b_xx)


def rest_state(grid: Grid) -> State:
    return State(np.zeros((2, grid.n)))


SCENARIOS: dict[str, str] = {
    "solitary": "solitary wave over a flat bottom (exact traveling profile)",
    "hump": "resting Gaussian hump over a flat bottom",
    "hump_over_bar": "resting Gaussian hump with a submerged Gaussian bar downstream",
    "rest_over_bar": "lake at rest over a submerged Gaussian bar (equilibrium)",
}


def build_scenario(
    name: str,
    grid: Grid,
    params: Parameters,
    amplitude: float,
    width: float,
    bar_height: float,
    bar_width: float,
    x0: float | None = None,
    bottom: Callable[[], Bathymetry] | None = None,
) -> tuple[State, Bathymetry]:
    """The scenario's initial state and bottom.  A given bottom() is called
    once the state is built and replaces the scenario's own bottom, which
    is then neither built nor checked."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}")
    if name == "solitary":
        state = solitary_wave(amplitude, params, grid, x0=x0)
    elif name == "rest_over_bar":
        state = rest_state(grid)
    else:
        state = gaussian_hump(amplitude, width, grid, x0=x0)
    if bottom is not None:
        return state, bottom()
    if name in ("solitary", "hump"):
        return state, Bathymetry.flat(grid)
    bar_x0 = x0 if name == "rest_over_bar" else _placed(grid, x0) + 0.25 * grid.length
    return state, bar_bathymetry(bar_height, bar_width, grid, x0=bar_x0)
