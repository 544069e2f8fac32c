"""Tests for the canned initial conditions and bottom profiles."""

import numpy as np
import pytest

from gn1d import (
    Bathymetry,
    Grid,
    Parameters,
    bar_bathymetry,
    build_scenario,
    d1_spectral,
    gaussian_hump,
    l2_norm,
    nonlinear_rhs,
    rest_state,
    solitary_wave,
    SCENARIOS,
)

from helpers import solitary_speed


def test_solitary_wave_matches_closed_form():
    grid = Grid(256, 80.0)
    params = Parameters(epsilon=0.4, mu=0.5, h0=0.25)
    a = 0.5
    state = solitary_wave(a, params, grid, x0=40.0)
    eps, mu = params.epsilon, params.mu
    kappa = np.sqrt(3.0 * eps * a / (4.0 * mu * (1.0 + eps * a)))
    c = np.sqrt(1.0 + eps * a)
    x = grid.nodes()
    zeta = a / np.cosh(kappa * (x - 40.0)) ** 2
    u = c * zeta / (1.0 + eps * zeta)
    assert np.allclose(state.zeta, zeta, rtol=0.0, atol=1e-14)
    assert np.allclose(state.u, u, rtol=0.0, atol=1e-14)
    assert solitary_speed(a, params) == pytest.approx(c, rel=1e-15)


def test_solitary_wave_parameters_give_round_numbers():
    # eps*a = 0.2 and mu = 0.5 make kappa = 0.5 and c = sqrt(1.2)
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    grid = Grid(512, 60.0)
    a = 0.4
    state = solitary_wave(a, params, grid, x0=30.0)
    peak = np.argmax(state.zeta)
    assert grid.nodes()[peak] == pytest.approx(30.0, abs=grid.dx)
    assert state.zeta[peak] == pytest.approx(a, rel=1e-12)
    kappa = np.sqrt(3.0 * 0.2 / (4.0 * 0.5 * 1.2))
    assert kappa == pytest.approx(0.5, rel=1e-15)
    assert solitary_speed(a, params) == pytest.approx(np.sqrt(1.2), rel=1e-15)


def test_solitary_wave_rejects_short_domains():
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    grid = Grid(64, 20.0)
    with pytest.raises(ValueError, match="domain too short"):
        solitary_wave(0.4, params, grid)


def test_solitary_wave_rejects_nonpositive_amplitude():
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    grid = Grid(128, 60.0)
    with pytest.raises(ValueError, match="amplitude"):
        solitary_wave(0.0, params, grid)


def test_solitary_wave_on_a_long_domain_underflows_without_warnings():
    # cosh^2 overflows far from the crest; sech^2 is then exactly 0, and
    # under the suite's error::RuntimeWarning filter a warning would raise
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    grid = Grid(256, 1500.0)
    state = solitary_wave(0.4, params, grid)
    assert state.zeta[grid.n // 2] == 0.4
    assert state.zeta[0] == 0.0 and state.u[0] == 0.0
    assert np.all(np.isfinite(state.zeta)) and np.all(np.isfinite(state.u))


def test_solitary_wave_wraps_cleanly_near_the_seam():
    # placing the crest near the boundary must reproduce a shifted copy
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    grid = Grid(512, 60.0)
    centered = solitary_wave(0.4, params, grid, x0=30.0)
    shifted = solitary_wave(0.4, params, grid, x0=30.0 + 10.0 * grid.dx)
    rolled = np.roll(centered.zeta, 10)
    assert np.allclose(shifted.zeta, rolled, rtol=0.0, atol=1e-13)


def test_solitary_wave_is_a_traveling_solution():
    # residual of the steady profile equation drops at 4th order in dx,
    # limited by the finite-difference part of the dispersive operator
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    a = 0.4
    c = solitary_speed(a, params)
    residuals = []
    for n in (128, 256, 512):
        grid = Grid(n, 60.0)
        bath = Bathymetry.flat(grid)
        state = solitary_wave(a, params, grid, x0=30.0)
        dz, du = nonlinear_rhs(state.zu, bath, params, grid)
        rz = dz + c * d1_spectral(state.zeta, grid)
        ru = du + c * d1_spectral(state.u, grid)
        residuals.append(max(l2_norm(rz, grid), l2_norm(ru, grid)))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def test_gaussian_hump_profile_and_rest_velocity():
    grid = Grid(128, 40.0)
    state = gaussian_hump(0.3, 2.0, grid, x0=10.0)
    r = (grid.nodes() - 10.0 + 20.0) % 40.0 - 20.0
    assert np.allclose(state.zeta, 0.3 * np.exp(-(r**2) / 8.0), atol=1e-15)
    assert np.all(state.u == 0.0)


def test_gaussian_hump_rejects_bad_width():
    grid = Grid(64, 40.0)
    with pytest.raises(ValueError, match="^hump width must be positive, got 0.0$"):
        gaussian_hump(0.3, 0.0, grid)


def test_bar_bathymetry_derivatives_are_consistent():
    # analytic derivatives must agree with spectral differentiation of b;
    # the bar is kept narrow so its periodic seam values are negligible
    grid = Grid(256, 40.0)
    bath = bar_bathymetry(0.4, 2.0, grid, x0=20.0)
    bx = d1_spectral(bath.b, grid)
    bxx = d1_spectral(bath.b_x, grid)
    assert np.allclose(bath.b_x, bx, rtol=0.0, atol=1e-10)
    assert np.allclose(bath.b_xx, bxx, rtol=0.0, atol=1e-10)


def test_bar_bathymetry_closed_form():
    grid = Grid(128, 40.0)
    h, w = 0.25, 2.5
    bath = bar_bathymetry(h, w, grid, x0=20.0)
    r = grid.nodes() - 20.0
    b = h * np.exp(-(r**2) / (2.0 * w**2))
    assert np.allclose(bath.b, b, atol=1e-15)
    assert np.allclose(bath.b_x, -(r / w**2) * b, atol=1e-15)
    assert np.allclose(bath.b_xx, (r**2 / w**4 - 1.0 / w**2) * b, atol=1e-15)


def test_bar_bathymetry_rejects_bad_width():
    grid = Grid(64, 40.0)
    with pytest.raises(ValueError, match="^bar width must be positive, got -1.0$"):
        bar_bathymetry(0.3, -1.0, grid)


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("builder", ["solitary", "hump", "bar"])
def test_every_builder_refuses_a_position_that_is_not_finite(builder, x0):
    # the solitary wave came out all NaN, and the hump and bar blamed their width
    grid = Grid(256, 60.0)
    with pytest.raises(ValueError, match=f"^x0 must be finite, got {x0}$"):
        if builder == "solitary":
            solitary_wave(0.4, Parameters(0.5, 0.5, h0=0.25), grid, x0=x0)
        elif builder == "hump":
            gaussian_hump(0.3, 2.0, grid, x0=x0)
        else:
            bar_bathymetry(0.3, 4.0, grid, x0=x0)


def test_rest_state_is_zero():
    grid = Grid(64, 10.0)
    state = rest_state(grid)
    assert np.all(state.zeta == 0.0)
    assert np.all(state.u == 0.0)


def test_scenario_registry_contents():
    assert set(SCENARIOS) == {"solitary", "hump", "hump_over_bar", "rest_over_bar"}
    for description in SCENARIOS.values():
        assert isinstance(description, str) and description


def test_build_scenario_rejects_unknown_names():
    grid = Grid(64, 60.0)
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("tsunami", grid, params, 0.2, 2.0, 0.3, 4.0)


def test_build_scenario_solitary_has_flat_bottom():
    grid = Grid(512, 60.0)
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    state, bath = build_scenario("solitary", grid, params, 0.4, 2.0, 0.3, 4.0)
    assert np.all(bath.b == 0.0)
    assert state.zeta.max() == pytest.approx(0.4, rel=1e-12)


def test_build_scenario_places_bar_downstream_of_hump():
    grid = Grid(256, 80.0)
    params = Parameters(epsilon=0.3, mu=0.5, h0=0.25)
    state, bath = build_scenario("hump_over_bar", grid, params, 0.2, 2.0, 0.3, 4.0)
    hump_peak = grid.nodes()[np.argmax(state.zeta)]
    bar_peak = grid.nodes()[np.argmax(bath.b)]
    assert hump_peak == pytest.approx(40.0, abs=grid.dx)
    assert bar_peak == pytest.approx(60.0, abs=grid.dx)
    assert bath.b.max() == pytest.approx(0.3, rel=1e-12)


def test_build_scenario_rest_over_bar_is_still():
    grid = Grid(128, 40.0)
    params = Parameters(epsilon=0.5, mu=0.5, h0=0.25)
    state, bath = build_scenario("rest_over_bar", grid, params, 0.2, 2.0, 0.35, 5.0)
    assert np.all(state.zeta == 0.0)
    assert np.all(state.u == 0.0)
    assert bath.b.max() == pytest.approx(0.35, rel=1e-12)
