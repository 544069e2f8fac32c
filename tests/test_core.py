"""Parameter validation, grid bookkeeping, and the depth condition."""

import math
import sys

import numpy as np
import pytest

from gn1d import (
    Bathymetry,
    DepthError,
    Grid,
    Parameters,
    State,
    compute_depth,
)
from gn1d.core import require_depth


def test_parameters_accept_unit_interval():
    p = Parameters(0.5, 0.25, h0=1.0)
    assert p.epsilon == 0.5 and p.mu == 0.25 and p.h0 == 1.0


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, float("nan")])
def test_parameters_reject_bad_epsilon(eps):
    with pytest.raises(ValueError):
        Parameters(eps, 0.5)


@pytest.mark.parametrize("mu", [0.0, -1.0, 2.0])
def test_parameters_reject_bad_mu(mu):
    with pytest.raises(ValueError):
        Parameters(0.5, mu)


@pytest.mark.parametrize("h0", [0.0, -0.5, 1.1])
def test_parameters_reject_bad_floor(h0):
    with pytest.raises(ValueError):
        Parameters(0.5, 0.5, h0=h0)


def test_grid_spacing_and_nodes():
    grid = Grid(8, 4.0)
    assert grid.dx == 0.5
    assert np.array_equal(grid.nodes(), 0.5 * np.arange(8))


def test_grid_wavenumbers_match_rfft_layout():
    grid = Grid(8, 2.0 * np.pi)
    assert np.allclose(grid.wavenumbers(), [0, 1, 2, 3, 4])


@pytest.mark.parametrize("n", [0, -4, 6, 7])
def test_grid_rejects_bad_size(n):
    with pytest.raises(ValueError):
        Grid(n, 1.0)


@pytest.mark.parametrize("n", [16.0, 16.5, "16", np.int64(16)])
def test_grid_takes_only_an_integer_node_count(n):
    # 16.0 passed the evenness test, and a builder's np.zeros(grid.n) then
    # raised a TypeError; "16" raised one from the comparison with 8
    if isinstance(n, np.integer):
        assert Grid(n, 6.28) == Grid(16, 6.28)
    else:
        with pytest.raises(ValueError, match="^grid size must be an even integer"):
            Grid(n, 6.28)


def test_grid_rejects_bad_length():
    # 5e-324 / 8 underflows the spacing to 0, which leaves no wavenumbers
    for length in (0.0, -1.0, np.inf, np.nan, 5e-324):
        with pytest.raises(ValueError):
            Grid(8, length)


@pytest.mark.parametrize("n", [16, 26, 512])
def test_grid_refuses_exactly_the_lengths_whose_wavenumbers_overflow(n):
    # bisect the bit patterns to the two adjacent lengths where the rule
    # flips: wavenumbers() is finite at the kept one and, taken as it takes
    # them, not at the refused one; the edge is pi n / DBL_MAX up to rounding
    # (at n = 16 between 2.7e-307 and 3e-307; at n = 26 the quotient
    # pi n / length itself flips one length away from the edge)
    def accepted(bits):
        try:
            Grid(n, float(np.int64(bits).view(np.float64)))
        except ValueError:
            return False
        return True

    lo, hi = (int(np.float64(v).view(np.int64)) for v in (1e-312, 1e-290))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    refused, kept = (float(np.int64(b).view(np.float64)) for b in (lo, hi))
    assert kept == pytest.approx(math.pi * n / sys.float_info.max, rel=1e-15)
    assert np.isfinite(Grid(n, kept).wavenumbers()).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(2.0 * np.pi * np.fft.rfftfreq(n, d=refused / n)).all()


@pytest.mark.parametrize(
    "zu, shape",
    [
        (np.zeros(8), r"\(8,\)"),
        (np.zeros((3, 8)), r"\(3, 8\)"),
        ([np.zeros(8), np.zeros(9)], r"\(2,\) \+ inhomogeneous"),
    ],
    ids=["1-D", "three rows", "ragged pair"],
)
def test_state_takes_only_a_two_row_stack(zu, shape):
    with pytest.raises(ValueError, match=f"shape.*{shape}"):
        State(zu)


def test_state_fields_are_views_of_the_stack():
    zu = np.arange(16.0).reshape(2, 8)
    state = State(zu, time=0.5)
    assert state.zu is zu and state.time == 0.5
    assert np.shares_memory(state.zeta, zu) and np.array_equal(state.zeta, zu[0])
    assert np.shares_memory(state.u, zu) and np.array_equal(state.u, zu[1])


def test_depth_formula_elementwise():
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5)
    x = grid.nodes()
    bath = Bathymetry.from_profile(0.1 * np.cos(x), grid)
    state = State(np.array((0.2 * np.sin(x), np.zeros(grid.n))))
    depth = compute_depth(state.zeta, bath, params)
    assert np.allclose(depth, 1.0 + 0.5 * (state.zeta - bath.b), atol=0.0)


def test_depth_of_a_stack_equals_the_row_by_row_calls():
    grid = Grid(16, 2.0 * np.pi)
    params = Parameters(0.5, 0.5)
    x = grid.nodes()
    bath = Bathymetry.from_profile(0.1 * np.cos(x), grid)
    zetas = np.stack([0.2 * np.sin((j + 1) * x) for j in range(3)])
    depths = compute_depth(zetas, bath, params)
    assert depths.shape == (3, grid.n)
    for j in range(3):
        assert np.array_equal(depths[j], compute_depth(zetas[j], bath, params))
    with pytest.raises(ValueError):
        compute_depth(np.zeros(grid.n + 2), bath, params)
    with pytest.raises(ValueError):
        compute_depth(np.zeros((3, grid.n - 1)), bath, params)


def test_require_depth_raises_with_details():
    params = Parameters(0.5, 0.5, h0=0.5)
    h = np.ones(8)
    require_depth(h, params)  # no raise at the floor boundary and above
    h[2] = 0.1
    with pytest.raises(DepthError) as info:
        require_depth(h, params)
    assert info.value.location == 2
    assert info.value.min_value == pytest.approx(0.1)


def test_require_depth_treats_nan_as_violation():
    params = Parameters(0.5, 0.5, h0=0.5)
    h = np.ones(8)
    h[0] = np.nan
    with pytest.raises(DepthError):
        require_depth(h, params)


def test_flat_bathymetry_is_zero():
    grid = Grid(32, 5.0)
    bath = Bathymetry.flat(grid)
    assert not bath.b.any() and not bath.b_x.any() and not bath.b_xx.any()


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Bathymetry(np.zeros((2, 4)), np.zeros(8), np.zeros(8)),
            r"b must be a 1-D array, got shape \(2, 4\)",
        ),
        (
            lambda: Bathymetry(np.zeros(8), np.zeros(8), np.zeros(6)),
            r"must share one shape, got \(8,\), \(8,\), \(6,\)",
        ),
        (
            lambda: Bathymetry.from_profile(np.zeros(10), Grid(8, 1.0)),
            "profile has 10 values, grid has 8 nodes",
        ),
    ],
    ids=["2-D", "mixed shapes", "profile length"],
)
def test_bathymetry_rejects_arrays_that_do_not_fit(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_profile_derivatives_match_calculus():
    grid = Grid(64, 2.0 * np.pi)
    x = grid.nodes()
    bath = Bathymetry.from_profile(np.cos(3.0 * x), grid)
    assert np.allclose(bath.b_x, -3.0 * np.sin(3.0 * x), atol=1e-12)
    assert np.allclose(bath.b_xx, -9.0 * np.cos(3.0 * x), atol=1e-12)


@pytest.mark.parametrize("time", (math.nan, math.inf, -math.inf))
def test_a_state_refuses_a_time_that_is_not_finite(time):
    # a march from it would never end at t_end: run() "completed" at -inf
    # or NaN after 0 steps, and picard_solve raised from its step count
    with pytest.raises(ValueError, match="a state's time must be finite"):
        State(np.zeros((2, 8)), time)
