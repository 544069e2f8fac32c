"""Shared builders for the test suite: band-limited random fields,
admissible random states over a bumpy bottom, and the closed forms some
oracles compare against.

Keeping every random field's spectrum well inside the grid's resolvable
band makes pointwise products exact (no aliased content), which is what
lets several identities below be checked at near-roundoff tolerances.
"""

import numpy as np

from gn1d import Bathymetry, Grid, Parameters, State


def band_limited(grid: Grid, kc: int, seed: int, amp: float = 1.0) -> np.ndarray:
    """Random real field supported on mode indices 1..kc, sup-normalized."""
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.n // 2 + 1, dtype=complex)
    coeff[1 : kc + 1] = rng.standard_normal(kc) + 1j * rng.standard_normal(kc)
    f = np.fft.irfft(coeff, grid.n)
    return amp * f / np.max(np.abs(f))


def bumpy_bathymetry(grid: Grid) -> Bathymetry:
    """Two-mode bottom profile used throughout: low harmonics only."""
    x = 2.0 * np.pi * grid.nodes() / grid.length
    return Bathymetry.from_profile(0.2 * np.cos(2.0 * x) + 0.1 * np.sin(5.0 * x), grid)


def random_state(grid: Grid, seed: int, kc: int = 24, zeta_amp: float = 0.2, u_amp: float = 0.3) -> State:
    """Band-limited random state; amplitudes keep the depth positive for eps <= 1."""
    return State(
        band_limited(grid, kc, seed, zeta_amp),
        band_limited(grid, kc, seed + 1000, u_amp),
    )


def admissible_depth(grid: Grid, params: Parameters, seed: int) -> np.ndarray:
    """Strictly positive random depth field bounded away from the floor."""
    rng = np.random.default_rng(seed)
    return params.h0 * (1.02 + np.abs(rng.standard_normal(grid.n)))


def state_from_depth(h: np.ndarray, bathymetry: Bathymetry, params: Parameters) -> State:
    """Surface elevation that realizes a prescribed depth field."""
    zeta = bathymetry.b + (h - 1.0) / params.epsilon
    return State(zeta, np.zeros_like(zeta))


def l2_diff(a: State, b: State, grid: Grid) -> float:
    return float(np.sqrt(np.sum((a.zeta - b.zeta) ** 2 + (a.u - b.u) ** 2) * grid.dx))


def fd_symbol(k: np.ndarray, dx: float) -> np.ndarray:
    """Wavenumber response of d1_fd: D e^{ikx} = i*sigma(k) e^{ikx}."""
    return (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / (6.0 * dx)


def solitary_speed(amplitude: float, params: Parameters) -> float:
    """Speed c = sqrt(1 + eps a) of the solitary wave of amplitude a."""
    return float(np.sqrt(1.0 + params.epsilon * amplitude))
