"""Canonical initial conditions and bottom profiles.

build_scenario builds each scenario named in SCENARIOS as a (State,
Bathymetry) pair for a given grid and parameter set.  Profiles that
decay (solitary wave, humps, bars) are placed by a wrapped coordinate so
they respect the periodic seam; the solitary-wave builder refuses
domains whose seam values are not negligible, since the profile is only
an exact traveling solution on the whole line.
"""

from __future__ import annotations

import numpy as np

from .core import Bathymetry, Grid, Parameters, State

# largest relative size a solitary profile may keep at the periodic seam
SEAM_TOL = 1e-12


def _wrapped_offset(x: np.ndarray, x0: float, length: float) -> np.ndarray:
    """Signed distance to x0 along the shorter way around the circle."""
    return (x - x0 + 0.5 * length) % length - 0.5 * length


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
    if x0 is None:
        x0 = 0.5 * grid.length
    kappa = np.sqrt(3.0 * eps * amplitude / (4.0 * mu * (1.0 + eps * amplitude)))
    if not np.isfinite(kappa):
        raise ValueError(f"amplitude {amplitude} overflows the solitary-wave width")
    # on a long domain cosh^2 overflows to inf where sech^2 is below the
    # smallest double; 1 / inf = 0 is then the right value
    with np.errstate(over="ignore"):
        seam = 1.0 / np.cosh(kappa * 0.5 * grid.length) ** 2
    if seam > SEAM_TOL:
        raise ValueError(
            f"domain too short for a clean solitary wave: seam value {seam:.3e} "
            f"exceeds {SEAM_TOL:.3e}; lengthen the domain"
        )
    c = np.sqrt(1.0 + eps * amplitude)
    if not np.isfinite(float(c) * float(amplitude)):  # bounds c zeta, since zeta <= amplitude
        raise ValueError(f"amplitude {amplitude} overflows the solitary-wave velocity")
    r = _wrapped_offset(grid.nodes(), x0, grid.length)
    with np.errstate(over="ignore"):
        zeta = amplitude / np.cosh(kappa * r) ** 2
    return State(np.array((zeta, c * zeta / (1.0 + eps * zeta))))


def _require_finite(what: str, *profiles: np.ndarray) -> None:
    if not all(np.all(np.isfinite(p)) for p in profiles):
        raise ValueError(f"{what} gives a non-finite profile or derivative on this grid")


def gaussian_hump(
    amplitude: float, width: float, grid: Grid, x0: float | None = None
) -> State:
    """Resting hump of water; splits into two counter-propagating waves."""
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if x0 is None:
        x0 = 0.5 * grid.length
    r = _wrapped_offset(grid.nodes(), x0, grid.length)
    # a numpy width makes an extreme one overflow to inf, not raise; the
    # powers are the same libm calls, so every value keeps its bits
    width = np.float64(width)
    with np.errstate(all="ignore"):
        zeta = amplitude * np.exp(-(r**2) / (2.0 * width**2))
    _require_finite(f"hump width {width:g}", zeta)
    return State(np.array((zeta, np.zeros(grid.n))))


def bar_bathymetry(
    height: float, width: float, grid: Grid, x0: float | None = None
) -> Bathymetry:
    """Gaussian bar with analytic first and second derivatives."""
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if x0 is None:
        x0 = 0.5 * grid.length
    r = _wrapped_offset(grid.nodes(), x0, grid.length)
    width = np.float64(width)  # as in gaussian_hump
    with np.errstate(all="ignore"):
        b = height * np.exp(-(r**2) / (2.0 * width**2))
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
) -> tuple[State, Bathymetry]:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}")
    if name == "solitary":
        return solitary_wave(amplitude, params, grid, x0=x0), Bathymetry.flat(grid)
    if name == "hump":
        return gaussian_hump(amplitude, width, grid, x0=x0), Bathymetry.flat(grid)
    if name == "hump_over_bar":
        center = 0.5 * grid.length if x0 is None else x0
        state = gaussian_hump(amplitude, width, grid, x0=center)
        return state, bar_bathymetry(bar_height, bar_width, grid, x0=center + 0.25 * grid.length)
    return rest_state(grid), bar_bathymetry(bar_height, bar_width, grid, x0=x0)
