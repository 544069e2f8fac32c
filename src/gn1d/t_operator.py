"""The depth-weighted dispersive operator and its factorized assembly.

The operator acting on velocity fields is

    T w = h w + mu * [ T1* (h T1 w) + T2* (h T2 w) ],
    T1 w = (h / sqrt(3)) w_x - (sqrt(3)/2) eps b_x w,
    T2 w = (eps / 2) b_x w,

with w_x taken by the banded fourth-order difference so that the starred
adjoints are literal transposes under the rectangle-rule pairing.  The
Gram structure makes T symmetric positive definite whenever the depth
stays above h0, and the assembly below preserves elementwise symmetry
exactly: each upper band is computed once and mirrored.

Bands have one layout: a BandedOperator is a (2w + 1, n) stack, a row
per offset in increasing order.  T1 is the (5, n) stack (offsets -2..2)
written by one formula from d1_fd's, whose zero diagonal row it
replaces; T is the (9, n) stack (offsets -4..4) that the assembly fills
and the returned operator holds.  T is built in a few whole-array
passes: one product gives the 15 terms a[p] * h * a[p + d] of the upper
Gram bands of T1* diag(h) T1, ordered by p and then d, written between
periodic halos of two cells; one add per p, in increasing p, sums a
slice of that buffer shifted by p into the upper bands, which start at
zero; the lower bands are one strided view of the upper ones behind a
left halo of four, row k shifted by k, as BandedOperator.apply views its
halo.  The sums are explicit ordered adds, not a segmented reduction
such as np.add.reduceat, which may pair the terms differently: each
entry is then summed exactly as a per-band loop sums it, to the last
bit and sign.

T has nine periodic bands.  Renumbering the nodes in the interleaved
order 0, n-1, 1, n-2, 2, ... puts every periodic coupling within eight
places of the diagonal, so T is factored exactly as an ordinary band
matrix of half-width 8 at O(n) cost, with no wrap-around corners and no
dense n x n matrix.  The band stack's flat view is the nine bands
concatenated in offset order, which one bincount scatters into lower
band storage, Fortran-ordered so that pbtrf factors it in place, with no
copy.  LAPACK's pbtrf and pbtrs are looked up once at import and called
directly.  In place of scipy's per-call finite scans, every array handed
to them passes core.require_finite: the band storage before pbtrf, and
each right-hand side before pbtrs.  A failed check raises NonFiniteError
with the lowest grid index of an offending node.  The assembly computes
under core.quiet_overflow, so a non-finite depth or bottom ends in that
error without a numpy warning, called on its own as within a march.

The two index permutations depend only on n and are built once,
read-only: the interleaved order and its inverse, and the (source,
destination) plan of the band-storage scatter.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .core import (
    Bathymetry,
    FactorizationError,
    Grid,
    Parameters,
    quiet_overflow,
    read_only,
    require_depth,
    require_finite,
)
from .grid_ops import BandedOperator, d1_fd

_SQRT3 = np.sqrt(3.0)
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)

# The 15 pairs (p, p + d) of T1 offsets behind the upper Gram bands,
# ordered by p and then d, as rows of the T1 stack (offset o is row o + 2),
# and the (start, stop) of each p's run of pairs, d = 0, 1, ...
_GRAM_P = read_only(np.repeat(np.arange(5), np.arange(5, 0, -1)))
_GRAM_Q = read_only(np.concatenate([np.arange(p, 5) for p in range(5)]))
_GRAM_BLOCKS = ((0, 5), (5, 9), (9, 12), (12, 14), (14, 15))


def build_factor_ops(
    h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> tuple[BandedOperator, np.ndarray]:
    """First-order factors: T1 over its (5, n) band stack (offsets -2..2), T2's diagonal."""
    a = (h / _SQRT3) * d1_fd(grid).bands
    a[2] = -(_SQRT3 / 2.0) * params.epsilon * bathymetry.b_x
    return BandedOperator(a), (params.epsilon / 2.0) * bathymetry.b_x


class TOperator(NamedTuple):
    """Assembled and factorized operator of one depth h; no solve reads the bottom."""

    grid: Grid
    params: Parameters
    h: np.ndarray
    banded: BandedOperator  # over the (9, n) band stack, rows at offsets -4..4
    cho: np.ndarray  # lower banded Cholesky factor in interleaved order


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
def _band_storage_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index of each stored entry in the (9, n) band stack, and its F-order index in ab."""
    _, p = _interleaved_order(n)
    i = np.arange(n)
    rows = min(8, n - 1) + 1
    src, dst = [], []
    for k, o in enumerate(range(-4, 5)):
        q = p[(i + o) % n]
        low = p >= q
        src.append(k * n + i[low])
        dst.append(q[low] * rows + (p[low] - q[low]))
    return read_only(np.concatenate(src)), read_only(np.concatenate(dst))


def _lower_band_storage(bands: np.ndarray) -> np.ndarray:
    """Lower band storage ab[p - q, q] = A[p, q] (p >= q, interleaved order), Fortran-ordered."""
    n = bands.shape[-1]
    src, dst = _band_storage_plan(n)
    rows = min(8, n - 1) + 1
    # within one band the destinations are distinct; at n = 8 bands -4 and
    # +4 share entries, which bincount sums in band order
    flat = np.bincount(dst, weights=bands.ravel()[src], minlength=rows * n)
    return flat.reshape((rows, n), order="F")


@quiet_overflow
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
    n = grid.n
    t1, t2_diag = build_factor_ops(h, bathymetry, params, grid)
    a = t1.bands
    prod = (a * h)[_GRAM_P]
    prod *= a[_GRAM_Q]
    # periodic halos of 2: terms[:, 2 + j] is the term at node j % n
    terms = np.concatenate((prod[:, n - 2 :], prod, prod[:, :2]), axis=1)

    bands = np.zeros((9, n))
    gram = bands[4:]  # upper bands of T1* diag(h) T1, offsets 0..4
    for p, (lo, hi) in enumerate(_GRAM_BLOCKS):  # gram[d, i] += prod[lo + d, (i - p + 2) % n]
        gram[: hi - lo] += terms[lo:hi, 4 - p : 4 - p + n]
    bands[4] = h + params.mu * (gram[0] + h * t2_diag**2)
    bands[5:] *= params.mu
    # band -d at i is band d at (i - d) % n, which keeps symmetry exact: row
    # k of the view over bands d = 4..1 behind a left halo of 4 is up[k, k + i]
    up = np.concatenate((bands[8:4:-1, n - 4 :], bands[8:4:-1]), axis=1)
    s = up.itemsize
    bands[:4] = np.ndarray((4, n), up.dtype, up, 0, ((n + 5) * s, s))

    ab = _lower_band_storage(bands)
    require_finite(ab, "band storage of T", _interleaved_order(n)[0])
    cho, info = _PBTRF(ab, lower=1, overwrite_ab=1)
    if info > 0:  # a leading minor is not positive definite
        raise FactorizationError(float(h.min()))
    if info != 0:
        raise ValueError(f"pbtrf rejected its argument {-info}")
    return TOperator(grid, params, h, BandedOperator(bands), cho)


def apply_T(op: TOperator, w: np.ndarray) -> np.ndarray:
    return op.banded.apply(w)


def _cho_solve(op: TOperator, f: np.ndarray) -> np.ndarray:
    order, position = _interleaved_order(op.grid.n)
    b = f[order]
    require_finite(b, "right-hand side of a solve with T", order)
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
