"""The depth-weighted dispersive operator and its factorized assembly.

The operator acting on velocity fields is

    T w = h w + mu * [ T1* (h T1 w) + T2* (h T2 w) ],
    T1 w = (h / sqrt(3)) w_x - (sqrt(3)/2) eps b_x w,
    T2 w = (eps / 2) b_x w,

with w_x taken by the banded fourth-order difference so that the starred
adjoints are literal transposes under the rectangle-rule pairing.  The
Gram structure makes T symmetric positive definite whenever the depth
stays above h0, and the assembly below preserves elementwise symmetry
exactly: each band is computed once and mirrored.

T has nine periodic bands.  Renumbering the nodes in the interleaved
order 0, n-1, 1, n-2, 2, ... puts every periodic coupling within eight
places of the diagonal, so T is factored exactly as an ordinary band
matrix of half-width 8 at O(n) cost, with no wrap-around corners and no
dense n x n matrix.  LAPACK's pbtrf and pbtrs are looked up once at
import and called directly.  In place of scipy's per-call finite scans,
every array handed to them passes one explicit np.isfinite check: the
band storage before pbtrf, and each right-hand side before pbtrs.  A
failed check raises NonFiniteError with the grid index of an offending
node.

The index patterns of the assembly depend only on n and are built once
per n, read-only: the interleaved order and its inverse, and the
(source, destination) plan that scatters the nine bands into lower band
storage with one bincount.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .core import (
    Bathymetry,
    FactorizationError,
    Grid,
    NonFiniteError,
    Parameters,
    read_only,
    require_depth,
)
from .grid_ops import BandedOperator, d1_fd

_SQRT3 = np.sqrt(3.0)
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def build_factor_ops(
    h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> tuple[BandedOperator, np.ndarray]:
    """First-order factors (T1 as a banded operator, T2 as a diagonal) of the operator."""
    d = d1_fd(grid)
    bands = {o: (h / _SQRT3) * c for o, c in d.bands.items()}
    bands[0] = -(_SQRT3 / 2.0) * params.epsilon * bathymetry.b_x
    return BandedOperator(grid.n, bands), (params.epsilon / 2.0) * bathymetry.b_x


class TOperator:
    """Assembled and factorized operator tied to one (h, bathymetry) pair."""

    def __init__(self, grid, params, h, bathymetry, banded, cho):
        self.grid = grid
        self.params = params
        self.h = h
        self.bathymetry = bathymetry
        self.banded = banded
        self.cho = cho  # lower banded Cholesky factor in interleaved order


@lru_cache(maxsize=16)
def _interleaved_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node at each interleaved position (0, n-1, 1, n-2, ...) and its inverse."""
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    return read_only(order), read_only(position)


@lru_cache(maxsize=16)
def _band_storage_plan(n: int, offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Index of each stored entry in the concatenated bands, and its flat place in ab."""
    _, p = _interleaved_order(n)
    i = np.arange(n)
    src, dst = [], []
    for k, o in enumerate(offsets):
        q = p[(i + o) % n]
        low = p >= q
        src.append(k * n + i[low])
        dst.append((p[low] - q[low]) * n + q[low])
    return read_only(np.concatenate(src)), read_only(np.concatenate(dst))


def _lower_band_storage(banded: BandedOperator) -> np.ndarray:
    """Lower band storage ab[p - q, q] = A[p, q] (p >= q) of A in interleaved order."""
    n = banded.n
    offsets = tuple(sorted(banded.bands))
    src, dst = _band_storage_plan(n, offsets)
    rows = min(8, n - 1) + 1
    values = np.concatenate([banded.bands[o] for o in offsets])[src]
    # within one band the destinations are distinct; at n = 8 bands -4 and
    # +4 share entries, which bincount sums in band order
    return np.bincount(dst, weights=values, minlength=rows * n).reshape(rows, n)


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise NonFiniteError unless a, whose columns are in interleaved order, is all finite."""
    finite = np.isfinite(a)
    if not finite.all():
        order, _ = _interleaved_order(a.shape[-1])
        raise NonFiniteError(what, order[np.nonzero(~finite)[-1][0]])


def _shift(a: np.ndarray, k: int) -> np.ndarray:
    """Periodic shift, out[i] = a[(i - k) % n], for |k| < n."""
    return np.concatenate((a[-k:], a[:-k]))


def _gram_bands(a: dict[int, np.ndarray], w: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Upper bands (offsets 0..4) of A^T diag(w) A for a 5-banded A."""
    offsets = sorted(a)
    out = {}
    for d in range(0, 5):
        acc = np.zeros(n)
        for p in offsets:
            if p + d in a:
                acc += _shift(a[p] * w * a[p + d], p)
        out[d] = acc
    return out


def assemble_T(
    h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> TOperator:
    """Assemble and Cholesky-factorize the operator for the given depth.

    Raises DepthError if min(h) < h0, NonFiniteError if the band storage
    holds an infinity or a NaN, and FactorizationError if the banded
    factorization fails; the latter only happens when positive
    definiteness is lost, so it is reported with the minimum depth.
    """
    h = np.asarray(h, dtype=float)
    require_depth(h, params)
    t1, t2_diag = build_factor_ops(h, bathymetry, params, grid)

    gram = _gram_bands(t1.bands, h, grid.n)
    bands = {d: params.mu * gram[d] for d in range(1, 5)}
    bands[0] = h + params.mu * (gram[0] + h * t2_diag**2)
    for d in range(1, 5):
        bands[-d] = _shift(bands[d], d)  # mirror keeps symmetry exact

    banded = BandedOperator(grid.n, bands)
    ab = _lower_band_storage(banded)
    _require_finite(ab, "band storage of T")
    cho, info = _PBTRF(ab, lower=1, overwrite_ab=1)
    if info > 0:  # a leading minor is not positive definite
        raise FactorizationError(float(h.min()))
    if info != 0:
        raise ValueError(f"pbtrf rejected its argument {-info}")
    return TOperator(grid, params, h, bathymetry, banded, cho)


def apply_T(op: TOperator, w: np.ndarray) -> np.ndarray:
    return op.banded.apply(w)


def _cho_solve(op: TOperator, f: np.ndarray) -> np.ndarray:
    order, position = _interleaved_order(op.grid.n)
    b = f[order]
    _require_finite(b, "right-hand side of a solve with T")
    w, info = _PBTRS(op.cho, b, lower=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"pbtrs rejected its argument {-info}")
    return w[position]


def solve_T(op: TOperator, f: np.ndarray) -> np.ndarray:
    """Solve T w = f by the banded Cholesky factor plus one refinement pass.

    Raises NonFiniteError if f, or the residual of the first pass, holds an
    infinity or a NaN.
    """
    w = _cho_solve(op, f)
    r = f - apply_T(op, w)
    return w + _cho_solve(op, r)


def solve_T_dx(op: TOperator, g: np.ndarray) -> np.ndarray:
    """Solve T w = D g with the same banded derivative used in assembly."""
    return solve_T(op, d1_fd(op.grid).apply(g))
