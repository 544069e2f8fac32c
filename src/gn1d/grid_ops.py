"""Differential and spectral operators on the periodic grid.

Two derivative backends coexist on purpose.  The banded fourth-order
finite-difference operator is used wherever a literal matrix transpose
must exist (the symmetric elliptic assembly); exact trigonometric
derivatives are used everywhere else.  Inner products use the rectangle
rule, which on a uniform periodic grid is what makes banded transposes
genuine adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid


@dataclass(frozen=True)
class BandedOperator:
    """Periodic banded matrix stored as A[i, (i+o) % n] = bands[o][i]."""

    n: int
    bands: dict[int, np.ndarray]

    def __post_init__(self):
        for o, c in self.bands.items():
            if c.shape != (self.n,):
                raise ValueError(f"band {o} has shape {c.shape}, expected ({self.n},)")

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.n)
        for o, c in sorted(self.bands.items()):
            y += c * np.roll(x, -o)
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i = np.arange(self.n)
        for o, c in sorted(self.bands.items()):
            np.add.at(a, (i, (i + o) % self.n), c)
        return a


def d1_fd(grid: Grid) -> BandedOperator:
    """Fourth-order centered first derivative as a banded operator.

    Stencil (-1, 8, 0, -8, 1)/(12 dx) on offsets (2, 1, 0, -1, -2); it is
    exactly antisymmetric, so its transpose is its negative bit for bit.
    """
    if grid.n < 8:
        raise ValueError(f"grid too small for the 5-point stencil: n = {grid.n}")
    one = np.ones(grid.n)
    c1 = 8.0 / (12.0 * grid.dx)
    c2 = 1.0 / (12.0 * grid.dx)
    return BandedOperator(
        grid.n,
        {1: c1 * one, -1: -c1 * one, 2: -c2 * one, -2: c2 * one},
    )


def fd_symbol(k: np.ndarray, dx: float) -> np.ndarray:
    """Wavenumber response of d1_fd: D e^{ikx} = i*sigma(k) e^{ikx}."""
    return (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / (6.0 * dx)


def apply_symbol(f: np.ndarray, symbol: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply a Fourier multiplier given on the nonnegative-wavenumber modes."""
    return np.fft.irfft(symbol * np.fft.rfft(f), grid.n)


def d1_spectral(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact derivative of the trigonometric interpolant (Nyquist zeroed)."""
    sym = 1j * grid.wavenumbers()
    sym[-1] = 0.0  # on an even grid the Nyquist mode has no resolvable sine partner
    return apply_symbol(f, sym, grid)


def dealias(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero every Fourier mode above two thirds of the resolvable band.

    Pointwise products of band-limited fields alias their high harmonics
    back onto low wavenumbers; truncating at 2/3 of the Nyquist index
    removes the aliased image of any quadratic product exactly.  Fields
    already confined to the retained band pass through up to roundoff.
    """
    coeff = np.fft.rfft(f)
    coeff[grid.n // 3 + 1 :] = 0.0
    return np.fft.irfft(coeff, grid.n)


def lambda_s(f: np.ndarray, s: float, grid: Grid) -> np.ndarray:
    """Bessel-potential smoothing/roughening (1 - d_xx)^{s/2}."""
    k = grid.wavenumbers()
    return apply_symbol(f, (1.0 + k * k) ** (0.5 * s), grid)


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Rectangle-rule L2 pairing dx * sum(f g)."""
    return float(grid.dx * np.dot(f, g))


def l2_norm(f: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.dx) * np.linalg.norm(f))


def hs_norm(f: np.ndarray, s: float, grid: Grid) -> float:
    """Sobolev norm |Lambda^s f|_2."""
    return l2_norm(lambda_s(f, s, grid), grid)
