"""Assembly, factorization, and bounds of the dispersive elliptic operator.

On a flat state (unit depth, flat bottom) the operator diagonalizes on
sampled cosines with eigenvalue 1 + mu*sigma(k)^2/3, sigma being the
banded derivative's symbol.  That closed form anchors the apply/solve
oracles below; everything else is exact symmetry and measured bounds.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from gn1d import (
    Bathymetry,
    DepthError,
    FactorizationError,
    Grid,
    NonFiniteError,
    Parameters,
    compute_depth,
)
from gn1d.checks import (
    coercivity_bound,
    inverse_bound_spreads,
    rayleigh_ratio,
    symmetry_defect,
)
from gn1d.grid_ops import BandedOperator, d1_fd, inner_product
from gn1d.scenarios import bar_bathymetry
from gn1d.t_operator import apply_T, assemble_T, build_factor_ops, solve_T
import gn1d.t_operator

from helpers import (
    admissible_depth,
    bumpy_bathymetry,
    fd_symbol,
    random_state,
    reference_assembly,
    reference_band_apply,
    reference_d1_bands,
    reference_t1_bands,
)


def _random_operator(n=64, seed=0, eps=0.5, mu=0.5, h0=0.5):
    grid = Grid(n, 2.0 * np.pi)
    params = Parameters(eps, mu, h0=h0)
    bath = bumpy_bathymetry(grid)
    h = admissible_depth(grid, params, seed)
    return assemble_T(h, bath, params, grid), grid, params


def _dict_stack(bands, w):
    """A reference {offset: band} dict as a (2w + 1, n) stack; every offset must be present."""
    assert sorted(bands) == list(range(-w, w + 1))
    return np.stack([bands[o] for o in range(-w, w + 1)])


def _assert_bitwise_equal(got, want):
    # equal values and equal sign bits: on a flat bottom T1's diagonal is -0.0
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [8, 10, 64, 512])
@pytest.mark.parametrize("bottom", ["flat", "gaussian_bar"])
def test_stacked_assembly_equals_the_per_band_reference_bit_for_bit(n, bottom):
    grid = Grid(n, 20.0)
    params = Parameters(0.7, 0.4, h0=0.3)
    bath = Bathymetry.flat(grid) if bottom == "flat" else bar_bathymetry(0.3, 2.0, grid)
    for seed in range(3):
        h = admissible_depth(grid, params, seed + n)
        op = assemble_T(h, bath, params, grid)
        bands, ab, cho = reference_assembly(h, bath, params, grid)
        _assert_bitwise_equal(op.banded.bands, _dict_stack(bands, 4))
        _assert_bitwise_equal(gn1d.t_operator._lower_band_storage(op.banded.bands), ab)
        _assert_bitwise_equal(op.cho, cho)

        t1, _ = build_factor_ops(h, bath, params, grid)
        _assert_bitwise_equal(t1.bands, _dict_stack(reference_t1_bands(h, bath, params, grid), 2))


@pytest.mark.parametrize("n", [8, 10, 64, 512])
def test_band_apply_equals_the_per_band_reference_bit_for_bit(n):
    # T, T1 and d1_fd applied as stacks against the per-band loop over
    # {offset: band} dicts, whose d1_fd has no diagonal band at all;
    # inputs hold signed zeros, so the sign bit of every entry is checked
    grid = Grid(n, 20.0)
    params = Parameters(0.7, 0.4, h0=0.3)
    bath = bar_bathymetry(0.3, 2.0, grid)
    h = admissible_depth(grid, params, n)
    op = assemble_T(h, bath, params, grid)
    t1, _ = build_factor_ops(h, bath, params, grid)
    pairs = [
        (op.banded, reference_assembly(h, bath, params, grid)[0]),
        (t1, reference_t1_bands(h, bath, params, grid)),
        (d1_fd(grid), reference_d1_bands(grid)),
    ]
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    x[rng.permutation(n)[: n // 2]] = -0.0
    inputs = [x, np.full(n, -0.0), np.zeros(n), np.where(np.arange(n) % 2, -0.0, 0.0)]
    for banded, ref in pairs:
        for v in inputs:
            _assert_bitwise_equal(banded.apply(v), reference_band_apply(ref, v))

    # the same stacks and random ones of widths 0, 1 and 3, on inputs that
    # also hold infinities and NaNs, against the loop over each stack's own
    # rows (d1_fd's zero diagonal times inf is NaN), compared as raw bits;
    # apply must leave its argument alone and return a fresh array
    stacks = [banded.bands for banded, _ in pairs]
    for w in (0, 1, 3):
        bands = rng.standard_normal((2 * w + 1, n))
        bands[rng.random(bands.shape) < 0.2] = -0.0
        stacks.append(bands)
    special = x.copy()
    special[rng.permutation(n)[:4]] = [np.inf, -np.inf, np.nan, -np.nan]
    for bands in stacks:
        banded = BandedOperator(bands)
        rows = dict(enumerate(bands, start=-(len(bands) // 2)))
        for v in [*inputs, special, np.full(n, np.nan), np.full(n, -np.inf)]:
            before = v.copy()
            with np.errstate(invalid="ignore"):
                got, want = banded.apply(v), reference_band_apply(rows, v)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(v.view(np.int64), before.view(np.int64))
            assert not np.shares_memory(got, bands) and not np.shares_memory(got, v)


def test_the_factor_is_computed_in_place_in_the_band_storage():
    # Fortran-ordered band storage is LAPACK's layout: pbtrf overwrites it
    # with the factor instead of factoring a copy
    top = gn1d.t_operator
    for n in (8, 10, 64):
        op, _, _ = _random_operator(n=n, seed=n)
        ab = top._lower_band_storage(op.banded.bands)
        assert ab.flags.f_contiguous
        cho, info = top._PBTRF(ab, lower=1, overwrite_ab=1)
        assert info == 0
        assert np.shares_memory(cho, ab)
        _assert_bitwise_equal(cho, op.cho)


def test_cached_assembly_plans_cannot_be_corrupted():
    n = 16
    grid = Grid(n, 2.0 * np.pi)
    top = gn1d.t_operator
    arrays = [
        *top._interleaved_order(n),
        *top._band_storage_plan(n),
        d1_fd(grid).bands,
        top._GRAM_P,
        top._GRAM_Q,
    ]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1
    # assembly after the attempted writes still equals the reference
    params = Parameters(0.5, 0.5, h0=0.5)
    h = admissible_depth(grid, params, 1)
    bath = bumpy_bathymetry(grid)
    op = assemble_T(h, bath, params, grid)
    bands, _, cho = reference_assembly(h, bath, params, grid)
    assert np.array_equal(op.banded.bands, _dict_stack(bands, 4))
    assert np.array_equal(op.cho, cho)


def test_assembled_matrix_is_exactly_symmetric():
    for seed in range(5):
        op, _, _ = _random_operator(seed=seed)
        dense = op.banded.to_dense()
        assert np.array_equal(dense, dense.T)


def test_symmetry_defect_measures_a_broken_mirror():
    op, _, _ = _random_operator(seed=6)
    assert symmetry_defect(op) == 0.0
    op.banded.bands[4 + 1, 7] += 1e-3
    assert symmetry_defect(op) == pytest.approx(1e-3, rel=1e-9)


def test_dense_and_banded_forms_agree():
    op, grid, _ = _random_operator(seed=1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.standard_normal(grid.n)
        assert np.allclose(op.banded.apply(v), op.banded.to_dense() @ v, atol=1e-12)


def test_flat_state_eigenvalue():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    op = assemble_T(np.ones(grid.n), Bathymetry.flat(grid), params, grid)
    x = grid.nodes()
    for k in (1.0, 3.0, 6.0):
        sigma = fd_symbol(np.array(k), grid.dx)
        v = np.cos(k * x)
        assert np.allclose(apply_T(op, v), (1.0 + params.mu * sigma**2 / 3.0) * v, atol=1e-12)


def test_flat_state_solve_inverts_eigenvalue():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 1.0, h0=0.5)
    op = assemble_T(np.ones(grid.n), Bathymetry.flat(grid), params, grid)
    x = grid.nodes()
    k = 4.0
    sigma = fd_symbol(np.array(k), grid.dx)
    got = solve_T(op, np.cos(k * x))
    assert np.allclose(got, np.cos(k * x) / (1.0 + sigma**2 / 3.0), atol=1e-12)


def test_solve_then_apply_roundtrip():
    rng = np.random.default_rng(8)
    for seed in range(5):
        op, grid, _ = _random_operator(seed=seed, eps=0.9, mu=0.3)
        f = rng.standard_normal(grid.n)
        w = solve_T(op, f)
        rel = np.max(np.abs(apply_T(op, w) - f)) / np.max(np.abs(f))
        assert rel <= 1e-12


def test_banded_solve_matches_dense_solve():
    # on the smallest grids the interleaved band overlaps the wrapped
    # couplings (at n = 8 bands +4 and -4 share one entry)
    rng = np.random.default_rng(21)
    for n in (8, 10, 12, 16, 64):
        for seed in range(3):
            op, grid, _ = _random_operator(n=n, seed=seed, eps=0.9, mu=0.3)
            f = rng.standard_normal(grid.n)
            want = np.linalg.solve(op.banded.to_dense(), f)
            got = solve_T(op, f)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_band_storage_is_the_interleaved_lower_band_of_the_dense_matrix():
    # the per-n plan must place every entry, and sum the ones bands +4 and
    # -4 share at n = 8, exactly as the dense matrix does
    for n in (8, 10, 12, 16, 64):
        op, _, _ = _random_operator(n=n, seed=n)
        order, _ = gn1d.t_operator._interleaved_order(n)
        a = op.banded.to_dense()[np.ix_(order, order)]
        want = np.zeros((min(8, n - 1) + 1, n))
        for k in range(want.shape[0]):
            want[k, : n - k] = np.diagonal(a, -k)
        assert np.array_equal(gn1d.t_operator._lower_band_storage(op.banded.bands), want)


def test_assembly_and_solve_build_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense matrix built on the solve path")

    monkeypatch.setattr(BandedOperator, "to_dense", refuse)
    op, grid, _ = _random_operator(n=512, seed=2)
    f = np.random.default_rng(3).standard_normal(grid.n)
    w = solve_T(op, f)
    assert np.max(np.abs(apply_T(op, w) - f)) <= 1e-12 * np.max(np.abs(f))
    assert solve_T(op, d1_fd(grid).apply(f)).shape == (grid.n,)


def test_direct_lapack_calls_equal_the_scipy_wrappers():
    # pbtrf and pbtrs are called directly; scipy's checked wrappers on the
    # same band storage are the reference, bit for bit
    rng = np.random.default_rng(31)
    for n in (8, 10, 16, 64):
        op, grid, _ = _random_operator(n=n, seed=n, eps=0.9, mu=0.3)
        cho = cholesky_banded(gn1d.t_operator._lower_band_storage(op.banded.bands), lower=True)
        assert np.array_equal(op.cho, cho)
        order, position = gn1d.t_operator._interleaved_order(n)

        def scipy_solve(f):
            return cho_solve_banded((cho, True), f[order])[position]

        f = rng.standard_normal(n)
        w = scipy_solve(f)
        assert np.array_equal(solve_T(op, f), w + scipy_solve(f - apply_T(op, w)))


def test_non_finite_data_raise_the_labeled_error():
    op, grid, params = _random_operator(n=32, seed=4)
    f = np.ones(grid.n)
    f[5] = np.nan
    with pytest.raises(NonFiniteError) as info:
        solve_T(op, f)
    assert info.value.location == 5
    f[5] = np.inf
    with pytest.raises(NonFiniteError):
        solve_T(op, f)

    # an infinite depth passes the depth floor; the band check catches it
    # within the stencil's reach of the bad node
    h = op.h.copy()
    h[3] = np.inf
    bath = bumpy_bathymetry(grid)
    bx = bath.b_x.copy()
    bx[3] = np.nan
    cases = [(h, bath), (op.h, Bathymetry(bath.b, bx, bath.b_xx))]
    for depth, bath in cases:
        with pytest.raises(NonFiniteError) as info:
            assemble_T(depth, bath, params, grid)
        d = (info.value.location - 3) % grid.n
        assert min(d, grid.n - d) <= 4


def test_a_solve_names_the_lowest_grid_index_of_a_non_finite_right_hand_side():
    # the interleaved order puts node 510 before node 5; the error names 5
    op, grid, _ = _random_operator(n=512, seed=5)
    f = np.ones(grid.n)
    f[[5, 510]] = np.inf
    with pytest.raises(NonFiniteError) as info:
        solve_T(op, f)
    assert info.value.location == 5


def test_an_infinite_depth_node_ends_the_assembly_without_a_warning():
    # the assembly keeps the overflow policy when called on its own: the
    # suite turns numpy's invalid-value warnings on the way into errors
    grid = Grid(512, 2.0 * np.pi)
    params = Parameters(0.5, 0.5)
    h = np.ones(grid.n)
    h[300] = np.inf
    with pytest.raises(NonFiniteError) as info:
        assemble_T(h, bumpy_bathymetry(grid), params, grid)
    assert abs(info.value.location - 300) <= 4


def test_derivative_solve_matches_flat_oracle():
    grid = Grid(64, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    op = assemble_T(np.ones(grid.n), Bathymetry.flat(grid), params, grid)
    x = grid.nodes()
    k = 3.0
    sigma = fd_symbol(np.array(k), grid.dx)
    got = solve_T(op, d1_fd(grid).apply(np.sin(k * x)))
    want = sigma * np.cos(k * x) / (1.0 + params.mu * sigma**2 / 3.0)
    assert np.allclose(got, want, atol=1e-12)


def test_assembly_rejects_shallow_depth():
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    h = np.ones(grid.n)
    h[7] = 0.25
    with pytest.raises(DepthError):
        assemble_T(h, Bathymetry.flat(grid), params, grid)


def test_factorization_failure_is_reported(monkeypatch):
    # the depth guard normally makes this unreachable; disable it to
    # exercise the defensive path
    monkeypatch.setattr(gn1d.t_operator, "require_depth", lambda h, p: None)
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.5, 0.5, h0=0.5)
    with pytest.raises(FactorizationError) as info:
        assemble_T(-np.ones(grid.n), Bathymetry.flat(grid), params, grid)
    assert info.value.min_depth == -1.0


def test_coercivity_bound_formula():
    assert coercivity_bound(Parameters(0.5, 0.5, h0=1.0)) == pytest.approx(1.0 / 18.0)
    assert coercivity_bound(Parameters(0.5, 0.5, h0=0.5)) == pytest.approx(0.5 / 72.0)
    assert coercivity_bound(Parameters(0.5, 0.5, h0=0.1)) == pytest.approx(0.1 / 1800.0)


def test_quadratic_form_stays_above_bound():
    for seed, (eps, mu, h0) in enumerate(
        [(0.1, 0.1, 0.1), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0), (1.0, 0.1, 0.5)]
    ):
        op, grid, params = _random_operator(seed=seed, eps=eps, mu=mu, h0=h0)
        rng = np.random.default_rng(seed)
        ratios = [rayleigh_ratio(op, rng.standard_normal(grid.n)) for _ in range(16)]
        assert min(ratios) >= coercivity_bound(params)


def test_quadratic_form_matches_factored_sum():
    """(T v, v) equals |sqrt(h) v|^2 + mu |sqrt(h) T1 v|^2 + mu |sqrt(h) T2 v|^2."""
    op, grid, params = _random_operator(seed=3)
    t1, t2_diag = build_factor_ops(op.h, bumpy_bathymetry(grid), params, grid)
    rng = np.random.default_rng(12)
    for _ in range(5):
        v = rng.standard_normal(grid.n)
        quad = inner_product(apply_T(op, v), v, grid)
        t1v = t1.apply(v)
        t2v = t2_diag * v
        parts = (
            inner_product(op.h * v, v, grid)
            + params.mu * inner_product(op.h * t1v, t1v, grid)
            + params.mu * inner_product(op.h * t2v, t2v, grid)
        )
        assert abs(quad - parts) <= 1e-12 * abs(parts)


def test_factor_ops_match_their_definitions():
    grid = Grid(32, 2.0 * np.pi)
    params = Parameters(0.8, 0.5, h0=0.5)
    bath = bumpy_bathymetry(grid)
    h = admissible_depth(grid, params, 4)
    t1, t2_diag = build_factor_ops(h, bath, params, grid)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(grid.n)
    want = (h / np.sqrt(3.0)) * d1_fd(grid).apply(w) - (np.sqrt(3.0) / 2.0) * params.epsilon * bath.b_x * w
    assert np.allclose(t1.apply(w), want, atol=1e-13)
    assert np.allclose(t2_diag * w, 0.5 * params.epsilon * bath.b_x * w, atol=1e-15)


def test_inverse_constants_stay_bounded_as_mu_vanishes():
    # smooth admissible depths: the uniformity claim concerns coefficient
    # fields with bounded derivatives, not white-noise depth profiles
    grid = Grid(128, 2.0 * np.pi)
    bath = bumpy_bathymetry(grid)
    base = Parameters(0.5, 0.5, h0=0.25)
    depths = []
    for seed in range(3):
        zeta, _ = random_state(grid, seed=seed + 40)
        depths.append(compute_depth(zeta, bath, base))
    spread1, spread2 = inverse_bound_spreads(depths, bath, grid, trials=4, seed=7)
    assert spread1 <= 10.0
    assert spread2 <= 10.0
