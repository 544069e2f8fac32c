"""Shared builders for the test suite: band-limited random fields,
admissible random states over a bumpy bottom, the closed forms some
oracles compare against (the RK4 march about rest among them), the
misses of gn1d's two marches against that oracle, and per-band references: T's assembly and the product of a banded matrix,
each written over an {offset: band} dict.

Keeping every random field's spectrum well inside the grid's resolvable
band makes pointwise products exact (no aliased content), which is what
lets several identities below be checked at near-roundoff tolerances.
"""

import numpy as np
from scipy.linalg import cholesky_banded

from gn1d import (
    Bathymetry,
    Grid,
    Mollifier,
    Parameters,
    ReferenceTrajectory,
    State,
    run,
    solve_linear,
    StepControl,
)


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


def random_state(grid: Grid, seed: int, kc: int = 24, zeta_amp: float = 0.2, u_amp: float = 0.3) -> np.ndarray:
    """Band-limited random state as a (2, n) stack of (zeta, u); amplitudes
    keep the depth positive for eps <= 1."""
    return np.array((
        band_limited(grid, kc, seed, zeta_amp),
        band_limited(grid, kc, seed + 1000, u_amp),
    ))


def admissible_depth(grid: Grid, params: Parameters, seed: int) -> np.ndarray:
    """Strictly positive random depth field bounded away from the floor."""
    rng = np.random.default_rng(seed)
    return params.h0 * (1.02 + np.abs(rng.standard_normal(grid.n)))


def l2_diff(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """L2 distance of two (2, n) stacks of (zeta, u)."""
    return float(np.sqrt(np.sum((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) * grid.dx))


def fd_symbol(k: np.ndarray, dx: float) -> np.ndarray:
    """Wavenumber response of d1_fd: D e^{ikx} = i*sigma(k) e^{ikx}."""
    return (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / (6.0 * dx)


def rk4_about_rest(
    zu: np.ndarray, params: Parameters, grid: Grid, dt: float, m: int, phi=None
) -> np.ndarray:
    """m RK4 steps of size dt from the (2, n) stack zu of the system
    linearized about rest on a flat bottom, computed mode by mode.

    That system decouples into Fourier modes: U_k' = phi_k^2 M_k U_k with
    M_k = [[0, -ik], [-ik/tau_k, 0]], tau_k = 1 + mu sigma_k^2 / 3 the symbol
    of T (ik is 0 at Nyquist, phi the cutoff symbol or 1).  So m steps
    multiply mode k by R(dt phi_k^2 M_k)^m, R the degree-4 Taylor polynomial
    of exp; modes above n/3 are dealiased out of every increment and keep
    their initial coefficients.  It uses none of gn1d's operator or stepping
    code.
    """
    k = grid.wavenumbers()
    ik = 1j * k
    ik[-1] = 0.0
    tau = 1.0 + params.mu * fd_symbol(k, grid.dx) ** 2 / 3.0
    phi = np.ones(k.size) if phi is None else phi
    z = np.zeros((k.size, 2, 2), dtype=complex)
    z[:, 0, 1] = -ik
    z[:, 1, 0] = -ik / tau
    z *= (dt * phi**2)[:, None, None]
    z2 = z @ z
    r = np.eye(2) + z + z2 / 2.0 + z2 @ z / 6.0 + z2 @ z2 / 24.0
    coeff = np.fft.rfft(zu).T[:, :, None]  # (modes, 2, 1)
    marched = np.linalg.matrix_power(r, m) @ coeff
    kept = np.arange(k.size) <= grid.n // 3
    return np.fft.irfft(np.where(kept[:, None, None], marched, coeff)[:, :, 0].T, grid.n)



def _oracle_setting():
    """Grid, parameters, seeded (2, n) state, t_end and step count shared by
    the two oracle misses below: 64 nodes on [0, 2 pi), mu = eps = h0 = 0.5,
    100 steps to t = 1."""
    grid = Grid(64, 2.0 * np.pi)
    zu = np.random.default_rng(7).standard_normal((2, grid.n))
    return grid, Parameters(0.5, 0.5, h0=0.5), zu, 1.0, 100


def linear_march_oracle_miss(delta: float) -> float:
    """Max abs miss of the linear march about rest on a flat bottom against
    rk4_about_rest, plain (delta = 0) or mollified with cutoff delta."""
    grid, params, zu, t_end, m = _oracle_setting()
    mollifier = Mollifier.for_grid(delta, grid) if delta > 0.0 else None
    rest = ReferenceTrajectory.constant(State(np.zeros((2, grid.n))), t_end)
    out = solve_linear(
        rest, State(zu), Bathymetry.flat(grid), params, grid, StepControl(t_end=t_end),
        mollifier, dt=t_end / m,
    )
    assert out.completed and out.steps == m, out.reason
    phi = None if mollifier is None else mollifier.symbol
    want = rk4_about_rest(zu, params, grid, t_end / m, m, phi)
    return float(np.max(np.abs(out.trajectory.fields[-1] - want)))


def nonlinear_march_oracle_ratios(amplitudes) -> list:
    """Relative miss / a of the nonlinear march from a times the seeded
    state against rk4_about_rest, one per amplitude a."""
    grid, params, zu, t_end, m = _oracle_setting()
    # dt_max binds: at speed about 1 the CFL step is 0.5 dx = 0.049
    control = StepControl(t_end=t_end, dt_max=t_end / m)
    ratios = []
    for a in amplitudes:
        out = run(State(a * zu), Bathymetry.flat(grid), params, grid, control)
        assert out.completed and out.steps == m, out.status
        want = rk4_about_rest(a * zu, params, grid, t_end / m, m)
        ratios.append(float(np.max(np.abs(out.final_state.zu - want)) / np.max(np.abs(want))) / a)
    return ratios

def solitary_speed(amplitude: float, params: Parameters) -> float:
    """Speed c = sqrt(1 + eps a) of the solitary wave of amplitude a."""
    return float(np.sqrt(1.0 + params.epsilon * amplitude))


def reference_d1_bands(grid: Grid) -> dict:
    """Bands of the fourth-order difference (-1, 8, 0, -8, 1)/(12 dx), keyed by offset."""
    one = np.ones(grid.n)
    c1 = 8.0 / (12.0 * grid.dx)
    c2 = 1.0 / (12.0 * grid.dx)
    return {1: c1 * one, -1: -c1 * one, 2: -c2 * one, -2: c2 * one}


def reference_t1_bands(h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid):
    """Bands of T1 written out one offset at a time."""
    bands = {o: (h / np.sqrt(3.0)) * c for o, c in reference_d1_bands(grid).items()}
    bands[0] = -(np.sqrt(3.0) / 2.0) * params.epsilon * bathymetry.b_x
    return bands


def reference_band_apply(bands: dict, x: np.ndarray) -> np.ndarray:
    """A periodic banded matrix {offset: band} times x, one band at a time in offset order."""
    n = x.size
    xpad = np.concatenate((x[n - 4 :], x, x[:4]))  # xpad[4 + j] = x[j % n]
    y = np.zeros(n)
    for o, c in sorted(bands.items()):
        y += c * xpad[4 + o : 4 + o + n]
    return y


def _shift(a: np.ndarray, k: int) -> np.ndarray:
    """Periodic shift, out[i] = a[(i - k) % n], for |k| < n."""
    return np.concatenate((a[-k:], a[:-k]))


def _gram_bands(a: dict, w: np.ndarray, n: int) -> dict:
    """Upper bands (offsets 0..4) of A^T diag(w) A for a 5-banded A, one term at a time."""
    offsets = sorted(a)
    out = {}
    for d in range(0, 5):
        acc = np.zeros(n)
        for p in offsets:
            if p + d in a:
                acc += _shift(a[p] * w * a[p + d], p)
        out[d] = acc
    return out


def reference_assembly(h: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid):
    """Bands of T, its interleaved lower band storage and Cholesky factor, by per-band loops.

    The bands are summed term by term into zeroed accumulators and mirrored
    band by band; the band storage is filled one band at a time in offset
    order.  Returns (bands, ab, cho) with bands a dict keyed by offset.
    """
    n = grid.n
    t1 = reference_t1_bands(h, bathymetry, params, grid)
    t2_diag = (params.epsilon / 2.0) * bathymetry.b_x
    gram = _gram_bands(t1, h, n)
    bands = {d: params.mu * gram[d] for d in range(1, 5)}
    bands[0] = h + params.mu * (gram[0] + h * t2_diag**2)
    for d in range(1, 5):
        bands[-d] = _shift(bands[d], d)

    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    ab = np.zeros((min(8, n - 1) + 1, n))
    i = np.arange(n)
    for o in sorted(bands):
        p, q = position[i], position[(i + o) % n]
        low = p >= q
        np.add.at(ab, (p[low] - q[low], q[low]), bands[o][low])
    return bands, ab, cholesky_banded(ab, lower=True)
