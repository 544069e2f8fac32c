"""Exact discrete symmetries of the periodic grid, as guards on every march.

A shift by a whole number of nodes and the reflection x -> -x map the
discrete system onto itself, so each march must commute with them.  The
factor's interleaved order has its seam at a fixed node and the sums
run in a fixed node order, so the two sides agree to a few ulps, not to
the bit; an index slip in the band layout, the band storage or a bottom
term moves them apart by far more than the bound.
"""

import numpy as np
import pytest

from gn1d import (
    Bathymetry,
    Grid,
    Parameters,
    ReferenceTrajectory,
    State,
    StepControl,
    bar_bathymetry,
    gaussian_hump,
    picard_solve,
    run,
    solve_linear,
)

GRID = Grid(128, 30.0)
PARAMS = Parameters(0.5, 0.5, h0=0.3)
CONTROL = StepControl(t_end=1.0)
SHIFT = 37  # odd, so the wave crosses the seam of the interleaved factor order
RELATIVE = 1e-14  # against a measured 2.3e-16 to 4.6e-16


def _shift(f: np.ndarray) -> np.ndarray:
    return np.roll(f, SHIFT, axis=-1)


def _mirror(f: np.ndarray) -> np.ndarray:
    """f(-x) on the nodes: node j takes node (-j) % n."""
    return np.roll(f[..., ::-1], 1, axis=-1)


def _reflect(zu: np.ndarray) -> np.ndarray:
    """(zeta, u)(x) -> (zeta(-x), -u(-x)) on a (..., 2, n) stack."""
    out = _mirror(zu)
    out[..., 1, :] *= -1.0
    return out


TRANSFORMS = {
    "shift": (_shift, lambda b: Bathymetry(_shift(b.b), _shift(b.b_x), _shift(b.b_xx))),
    "reflection": (
        _reflect,
        lambda b: Bathymetry(_mirror(b.b), -_mirror(b.b_x), _mirror(b.b_xx)),
    ),
}


def _setting() -> tuple[State, Bathymetry]:
    """A hump with a sine velocity beside a bar: no symmetry of its own."""
    hump = gaussian_hump(0.3, 1.5, GRID, x0=8.0)
    zu = hump.zu.copy()
    zu[1] = 0.2 * np.sin(2.0 * np.pi * GRID.nodes() / GRID.length + 0.4)
    return State(zu), bar_bathymetry(0.3, 2.0, GRID, x0=19.0)


def _assert_commutes(got: np.ndarray, want: np.ndarray) -> None:
    miss = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert miss <= RELATIVE, f"relative miss {miss:.2e}"


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_the_nonlinear_run_commutes_with_the_grid_symmetries(name):
    fields, bottom = TRANSFORMS[name]
    initial, bath = _setting()
    plain = run(initial, bath, PARAMS, GRID, CONTROL)
    moved = run(State(fields(initial.zu)), bottom(bath), PARAMS, GRID, CONTROL)
    assert plain.completed and moved.completed
    assert moved.steps == plain.steps
    _assert_commutes(moved.final_state.zu, fields(plain.final_state.zu))


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_the_linear_march_commutes_with_the_grid_symmetries(name):
    # linearized about a moving reference: the nonlinear run's states
    fields, bottom = TRANSFORMS[name]
    initial, bath = _setting()
    states = []
    run(initial, bath, PARAMS, GRID, CONTROL, on_state=lambda step, state: states.append(state))
    ref = ReferenceTrajectory.from_states(states)
    moved_ref = ReferenceTrajectory(ref.times, fields(ref.fields))
    plain = solve_linear(ref, initial, bath, PARAMS, GRID, CONTROL)
    moved = solve_linear(moved_ref, State(fields(initial.zu)), bottom(bath), PARAMS, GRID, CONTROL)
    assert plain.completed and moved.completed
    _assert_commutes(moved.trajectory.fields, fields(plain.trajectory.fields))


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_the_picard_limit_commutes_with_the_grid_symmetries(name):
    fields, bottom = TRANSFORMS[name]
    initial, bath = _setting()
    plain = picard_solve(initial, bath, PARAMS, GRID, CONTROL)
    moved = picard_solve(State(fields(initial.zu)), bottom(bath), PARAMS, GRID, CONTROL)
    assert plain.completed and moved.completed
    assert len(moved.gaps) == len(plain.gaps)
    _assert_commutes(moved.trajectory.fields, fields(plain.trajectory.fields))
