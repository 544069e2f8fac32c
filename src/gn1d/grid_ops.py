"""Differential and spectral operators on the periodic grid.

Two derivative backends coexist on purpose.  The banded fourth-order
finite-difference operator is used wherever a literal matrix transpose
must exist (the symmetric elliptic assembly); exact trigonometric
derivatives are used everywhere else.  Inner products use the rectangle
rule, which on a uniform periodic grid is what makes banded transposes
genuine adjoints.

Everything that depends only on the grid is built once per grid and held
read-only: the banded first derivative d1_fd(grid) and the spectral
derivative symbol, like Grid.wavenumbers() itself.  A banded operator is
applied through one periodic halo of _HALO cells around its argument
instead of one shifted copy per band.

The spectral operators (apply_symbol, d1_spectral, dealias, lambda_s)
take one field or a (k, n) stack of fields and transform along the last
axis, so k fields cost one rfft/irfft pair.  Each row of a stacked result
is bit-identical to the single-field call on that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Grid, read_only

_HALO = 4  # widest band offset of any operator here (the elliptic T)


@dataclass(frozen=True)
class BandedOperator:
    """Periodic banded matrix stored as A[i, (i+o) % n] = bands[o][i]."""

    n: int
    bands: dict[int, np.ndarray]

    def __post_init__(self):
        if self.n < _HALO:
            raise ValueError(f"banded operators need n >= {_HALO}, got {self.n}")
        for o, c in self.bands.items():
            if c.shape != (self.n,):
                raise ValueError(f"band {o} has shape {c.shape}, expected ({self.n},)")
            if abs(o) > _HALO:
                raise ValueError(f"band offset {o} exceeds the periodic halo of {_HALO}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        xpad = np.concatenate((x[n - _HALO :], x, x[:_HALO]))  # xpad[_HALO + j] = x[j % n]
        y = np.zeros(n)
        for o, c in sorted(self.bands.items()):
            y += c * xpad[_HALO + o : _HALO + o + n]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i = np.arange(self.n)
        for o, c in sorted(self.bands.items()):
            np.add.at(a, (i, (i + o) % self.n), c)
        return a


@lru_cache(maxsize=16)
def d1_fd(grid: Grid) -> BandedOperator:
    """Fourth-order centered first derivative as a banded operator.

    Stencil (-1, 8, 0, -8, 1)/(12 dx) on offsets (2, 1, 0, -1, -2); it is
    exactly antisymmetric, so its transpose is its negative bit for bit.
    Built once per grid; its bands are read-only.
    """
    one = np.ones(grid.n)
    c1 = 8.0 / (12.0 * grid.dx)
    c2 = 1.0 / (12.0 * grid.dx)
    bands = {1: c1 * one, -1: -c1 * one, 2: -c2 * one, -2: c2 * one}
    return BandedOperator(grid.n, {o: read_only(c) for o, c in bands.items()})


def apply_symbol(f: np.ndarray, symbol: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply a Fourier multiplier given on the nonnegative-wavenumber modes."""
    return np.fft.irfft(symbol * np.fft.rfft(f), grid.n)


@lru_cache(maxsize=16)
def _d1_symbol(grid: Grid) -> np.ndarray:
    sym = 1j * grid.wavenumbers()
    sym[-1] = 0.0  # on an even grid the Nyquist mode has no resolvable sine partner
    return read_only(sym)


def d1_spectral(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact derivative of the trigonometric interpolant (Nyquist zeroed)."""
    return apply_symbol(f, _d1_symbol(grid), grid)


def dealias(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero every Fourier mode above two thirds of the resolvable band.

    Pointwise products of band-limited fields alias their high harmonics
    back onto low wavenumbers; truncating at 2/3 of the Nyquist index
    removes the aliased image of any quadratic product exactly.  Fields
    already confined to the retained band pass through up to roundoff.
    """
    coeff = np.fft.rfft(f)
    coeff[..., grid.n // 3 + 1 :] = 0.0
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
