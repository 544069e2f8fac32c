"""Differential and spectral operators on the periodic grid.

Two derivative backends coexist on purpose.  The banded fourth-order
finite-difference operator is used wherever a literal matrix transpose
must exist (the symmetric elliptic assembly); exact trigonometric
derivatives are used everywhere else.  Inner products use the rectangle
rule, which on a uniform periodic grid is what makes banded transposes
genuine adjoints.

Everything that depends only on the grid is built once per grid and held
read-only: the banded first derivative d1_fd(grid) and the spectral
derivative and Bessel-potential symbols, like Grid.wavenumbers() itself.
A banded operator is its (2w + 1, n) band stack, a row per offset in
increasing order.  Its apply multiplies the stack by one strided view of
a periodic halo of _HALO cells around the argument, row k shifted by
k - w, and sums the rows in offset order from +0.0: one product and one
reduction, bit-exact to a per-band loop of adds.

The spectral operators (apply_symbol, d1_spectral, dealias, lambda_s)
take one field or a (k, n) stack of fields and transform along the last
axis, so k fields cost one rfft/irfft pair.  Each row of a stacked result
is bit-identical to the single-field call on that row.  The third symbol,
linearized.cutoff_symbol's frequency cutoff, goes through apply_symbol
too, and an H^s norm is l2_norm(lambda_s(f, s, grid), grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Grid, read_only

_HALO = 4  # widest band offset of any operator here (the elliptic T)


@dataclass(frozen=True)
class BandedOperator:
    """Periodic banded matrix from a (2w + 1, n) stack: A[i, (i + o) % n] = bands[w + o, i]."""

    bands: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.bands)
        if len(shape) != 2 or shape[0] % 2 != 1 or shape[0] // 2 > _HALO or shape[1] < _HALO:
            raise ValueError(f"bands must be (2w + 1, n), w <= {_HALO}, n >= {_HALO}; got {shape}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        w, n = self.bands.shape[0] // 2, self.bands.shape[1]
        if np.shape(x) != (n,):
            raise ValueError(f"argument must have shape ({n},), got {np.shape(x)}")
        xpad = np.concatenate((x[n - _HALO :], x, x[:_HALO]))  # xpad[_HALO + j] = x[j % n]
        s = xpad.itemsize  # row k of the view is x shifted by k - w: xpad[_HALO - w + k + i]
        shifted = np.ndarray((2 * w + 1, n), xpad.dtype, xpad, (_HALO - w) * s, (s, s))
        # from +0.0 like a loop of adds into zeros, so a sum of -0.0 terms is +0.0
        return np.add.reduce(self.bands * shifted, axis=0, initial=0.0)

    def to_dense(self) -> np.ndarray:
        w, n = self.bands.shape[0] // 2, self.bands.shape[1]
        a = np.zeros((n, n))
        i = np.arange(n)
        for o, c in enumerate(self.bands, start=-w):
            np.add.at(a, (i, (i + o) % n), c)
        return a


@lru_cache(maxsize=16)
def d1_fd(grid: Grid) -> BandedOperator:
    """Fourth-order centered first derivative as a banded operator.

    Stencil (-1, 8, 0, -8, 1)/(12 dx) on offsets (2, 1, 0, -1, -2), held as
    the (5, n) stack (c2, -c1, 0, c1, -c2) with an explicit zero diagonal; it
    is exactly antisymmetric, so its transpose is its negative bit for bit.
    Built once per grid; its bands are read-only.
    """
    c1 = 8.0 / (12.0 * grid.dx)
    c2 = 1.0 / (12.0 * grid.dx)
    stencil = np.array([c2, -c1, 0.0, c1, -c2])
    return BandedOperator(read_only(stencil[:, None] * np.ones(grid.n)))


def apply_symbol(f: np.ndarray, symbol: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply a Fourier multiplier given on the nonnegative-wavenumber modes."""
    coeff = np.fft.rfft(f)
    # in place, symbol first: a complex product need not commute bit for bit
    return np.fft.irfft(np.multiply(symbol, coeff, out=coeff), grid.n)


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


@lru_cache(maxsize=16)
def _lambda_symbol(grid: Grid, s: float) -> np.ndarray:
    k = grid.wavenumbers()
    return read_only((1.0 + k * k) ** (0.5 * s))


def lambda_s(f: np.ndarray, s: float, grid: Grid) -> np.ndarray:
    """Bessel-potential smoothing/roughening (1 - d_xx)^{s/2}."""
    return apply_symbol(f, _lambda_symbol(grid, s), grid)


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Rectangle-rule L2 pairing dx * sum(f g)."""
    return float(grid.dx * np.dot(f, g))


def l2_norm(f: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.dx) * np.linalg.norm(f))
