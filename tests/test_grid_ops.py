"""Banded and spectral operator primitives.

Trigonometric identities give exact oracles here: applying the 5-point
stencil to a sampled cosine reproduces its wavenumber symbol up to
roundoff, and discrete mode orthogonality pins every norm in closed form.
"""

import numpy as np
import pytest

from gn1d import Grid
from gn1d.grid_ops import (
    BandedOperator,
    _lambda_symbol,
    apply_symbol,
    d1_fd,
    d1_spectral,
    dealias,
    hs_norm,
    inner_product,
    l2_norm,
    lambda_s,
)

from helpers import fd_symbol


def test_banded_apply_matches_dense():
    rng = np.random.default_rng(3)
    # at n = 8 with offsets -4..4 the periodic halo of apply is n / 2 wide;
    # at n = 16 the stack has zero rows at offsets -3 and 2
    for n, offsets in ((16, (-2, -1, 0, 1, 3)), (8, range(-4, 5))):
        w = max(abs(o) for o in offsets)
        bands = np.zeros((2 * w + 1, n))
        for o in offsets:
            bands[w + o] = rng.standard_normal(n)
        op = BandedOperator(bands)
        dense = op.to_dense()
        for _ in range(10):
            x = rng.standard_normal(n)
            assert np.allclose(op.apply(x), dense @ x, atol=1e-13)


def test_banded_rejects_wrong_band_length():
    # a stack cannot hold bands of different lengths; what remains to
    # reject is a shape that is not (2w + 1, n) with n at least the halo
    for bands in (np.ones(7), np.ones((4, 8)), np.ones((1, 8, 1)), np.ones((3, 3))):
        with pytest.raises(ValueError):
            BandedOperator(bands)


def test_banded_apply_rejects_an_argument_of_another_shape():
    # the halo would wrap the wrong entries of a longer argument without a word
    op = BandedOperator(np.ones((3, 8)))
    for x in (np.arange(10.0), np.ones((2, 8)), np.ones(7)):
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            op.apply(x)


def test_banded_rejects_offsets_beyond_the_halo():
    with pytest.raises(ValueError):
        BandedOperator(np.ones((11, 16)))


def test_cached_grid_arrays_cannot_be_corrupted():
    grid = Grid(32, 2.0 * np.pi)
    c1, c2 = 8.0 / (12.0 * grid.dx), 1.0 / (12.0 * grid.dx)
    for arr in (grid.wavenumbers(), d1_fd(grid).bands, _lambda_symbol(grid, 2.0)):
        with pytest.raises(ValueError):
            arr[0] = 99.0
        with pytest.raises(ValueError):
            arr.flat[-1] = 99.0
    k = 2.0 * np.pi * np.fft.rfftfreq(32, d=grid.dx)
    assert np.array_equal(grid.wavenumbers(), k)
    assert np.array_equal(_lambda_symbol(grid, 2.0), (1.0 + k * k) ** 1.0)
    want = np.repeat([[c2], [-c1], [0.0], [c1], [-c2]], grid.n, axis=1)
    assert np.array_equal(d1_fd(grid).bands, want)
    assert not np.signbit(d1_fd(grid).bands[2]).any()


def test_fd_derivative_is_exactly_antisymmetric():
    grid = Grid(32, 2.0 * np.pi)
    d = d1_fd(grid).to_dense()
    assert np.array_equal(d, -d.T)


def test_fd_derivative_reproduces_its_symbol_on_cosines():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    for k in (1.0, 3.0, 7.0):
        got = d1_fd(grid).apply(np.cos(k * x))
        want = -fd_symbol(np.array(k), grid.dx) * np.sin(k * x)
        assert np.allclose(got, want, atol=1e-12)


def test_fd_symbol_fourth_order_accurate():
    # symbol error against the exact wavenumber shrinks ~16x per refinement
    k = 3.0
    errs = []
    for n in (64, 128, 256):
        dx = 2.0 * np.pi / n
        errs.append(abs(fd_symbol(np.array(k), dx) - k))
    assert 14.0 < errs[0] / errs[1] < 18.0
    assert 14.0 < errs[1] / errs[2] < 18.0


def test_fd_symbol_vanishes_at_zero_and_nyquist():
    dx = 0.1
    assert fd_symbol(np.array(0.0), dx) == 0.0
    assert abs(fd_symbol(np.array(np.pi / dx), dx)) < 1e-12


def test_spectral_derivative_exact_on_resolved_modes():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    assert np.allclose(d1_spectral(np.cos(3.0 * x), grid), -3.0 * np.sin(3.0 * x), atol=1e-12)
    assert np.allclose(d1_spectral(np.sin(5.0 * x), grid), 5.0 * np.cos(5.0 * x), atol=1e-12)


def test_spectral_derivative_drops_nyquist():
    grid = Grid(16, 2.0 * np.pi)
    x = grid.nodes()
    nyq = np.cos(8.0 * x)
    assert np.allclose(d1_spectral(nyq, grid), 0.0, atol=1e-12)


def test_dealias_zeroes_top_third_and_keeps_the_rest():
    grid = Grid(96, 2.0 * np.pi)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.n)
    g = dealias(f, grid)
    coeff = np.fft.rfft(g)
    # the truncation is exact in coefficient space; measuring it through
    # another transform pair leaves only transform roundoff behind
    assert np.max(np.abs(coeff[grid.n // 3 + 1 :])) <= 1e-13 * np.max(np.abs(coeff))
    kept = np.fft.rfft(f)[: grid.n // 3 + 1]
    assert np.allclose(coeff[: grid.n // 3 + 1], kept, atol=1e-12)


def test_dealias_passes_band_limited_fields_through():
    grid = Grid(96, 2.0 * np.pi)
    x = grid.nodes()
    f = np.cos(7.0 * x) - 0.4 * np.sin(2.0 * x)  # modes well under 96//3
    assert np.allclose(dealias(f, grid), f, atol=1e-14)


def test_inner_product_is_rectangle_rule():
    grid = Grid(32, 2.0 * np.pi)
    x = grid.nodes()
    # discrete orthogonality: sum cos^2 = n/2 exactly
    assert inner_product(np.cos(3.0 * x), np.cos(3.0 * x), grid) == pytest.approx(np.pi, abs=1e-13)
    assert inner_product(np.cos(3.0 * x), np.sin(3.0 * x), grid) == pytest.approx(0.0, abs=1e-13)


def test_l2_norm_of_unit_cosine():
    grid = Grid(64, 2.0 * np.pi)
    assert l2_norm(np.cos(3.0 * grid.nodes()), grid) == pytest.approx(np.sqrt(np.pi), abs=1e-13)


def test_sobolev_weight_on_single_mode():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    f = np.cos(3.0 * x)
    assert np.allclose(lambda_s(f, 1.0, grid), np.sqrt(10.0) * f, atol=1e-12)
    # inverse weight undoes the smoothing
    assert np.allclose(lambda_s(lambda_s(f, 1.5, grid), -1.5, grid), f, atol=1e-12)


def test_sobolev_norm_of_single_mode():
    grid = Grid(64, 2.0 * np.pi)
    f = np.cos(3.0 * grid.nodes())
    assert hs_norm(f, 1.0, grid) == pytest.approx(np.sqrt(10.0 * np.pi), rel=1e-13)
    assert hs_norm(f, 0.0, grid) == pytest.approx(l2_norm(f, grid), rel=1e-13)


def test_spectral_roundtrip_and_symbol_application():
    grid = Grid(32, 2.0 * np.pi)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(grid.n)
    assert np.allclose(apply_symbol(f, np.ones(grid.n // 2 + 1), grid), f, atol=1e-13)
    doubled = apply_symbol(f, 2.0 * np.ones(grid.n // 2 + 1), grid)
    assert np.allclose(doubled, 2.0 * f, atol=1e-13)


def test_parseval_for_rectangle_rule():
    """The rectangle-rule L2 norm equals the rfft coefficient norm."""
    grid = Grid(64, 5.0)
    rng = np.random.default_rng(21)
    f = rng.standard_normal(grid.n)
    coeff = np.fft.rfft(f) / grid.n
    weights = 2.0 * np.ones(grid.n // 2 + 1)
    weights[0] = 1.0
    weights[-1] = 1.0  # even n: the Nyquist coefficient appears once
    spectral = np.sqrt(grid.length * np.sum(weights * np.abs(coeff) ** 2))
    assert l2_norm(f, grid) == pytest.approx(spectral, rel=1e-12)


def test_apply_symbol_equals_the_out_of_place_product_bit_for_bit():
    # the spectrum is multiplied in place; complex products need not
    # commute bit for bit, so the symbol stays the left operand
    grid = Grid(64, 3.0)
    rng = np.random.default_rng(11)
    f = rng.standard_normal((2, grid.n))
    re, im = rng.standard_normal((2, grid.n // 2 + 1))
    for symbol in (re, 1j * re, re + 1j * im):
        before = (f.copy(), symbol.copy())
        want = np.fft.irfft(symbol * np.fft.rfft(f), grid.n)
        assert np.array_equal(apply_symbol(f, symbol, grid).view(np.int64), want.view(np.int64))
        assert np.array_equal(f, before[0]) and np.array_equal(symbol, before[1])


@pytest.mark.parametrize("n", (8, 10, 64, 512))
def test_stacked_transforms_equal_the_row_by_row_calls(n):
    """A (3, n) stack transforms along its last axis, bit for bit per row."""
    grid = Grid(n, 3.0)
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, n))
    symbol = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    ops = {
        "d1_spectral": lambda f: d1_spectral(f, grid),
        "dealias": lambda f: dealias(f, grid),
        "lambda_s": lambda f: lambda_s(f, 1.5, grid),
        "apply_symbol": lambda f: apply_symbol(f, symbol, grid),
    }
    for name, op in ops.items():
        got = op(stack)
        assert got.shape == stack.shape, name
        for row, f in zip(got, stack):
            assert np.array_equal(row, op(f)), name
