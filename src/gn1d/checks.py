"""The property checks of `gn1d verify`: per-sample measurements, their
bounds, and the suite that draws verify's samples and prints its table.

Each measurement function measures one sample, or one run history, so
`gn1d verify` and the acceptance suite, which draws its own samples,
report the same quantity computed the same way and read each bound from
BOUNDS.  The inverse-bound sweep draws its trial fields from the seed
its caller passes.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import Bathymetry, Grid, Parameters, StopError, compute_depth
from .diagnostics import (
    SWEEP_EPSILONS,
    SWEEP_H0,
    SWEEP_MUS,
    SWEEP_S,
    DiagnosticRecord,
    equivalence_report,
    weighted_velocity_form,
)
from .gn_rhs import coefficient_fields, condensed_rhs, nonlinear_rhs, q1_apply, q_total
from .grid_ops import d1_fd, d1_spectral, inner_product, l2_norm, lambda_s
from .linearized import cutoff_symbol, mollify
from .scenarios import solitary_wave
from .t_operator import TOperator, apply_T, assemble_T, solve_T
from .time_integrator import StepControl, run

_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


@dataclass(frozen=True)
class Bound:
    """A guarantee's bound: measured <compare> value, or lo <= measured <= hi for
    compare "in" and value (lo, hi).  A format spec ("g" when empty) formats the
    value, so f"{BOUNDS['mass_drift']}" is "<= 1e-12"."""

    compare: str
    value: float | tuple[float, float]

    def holds(self, *measured: float) -> bool:
        """Whether every measured value meets the bound."""
        if self.compare == "in":
            return all(self.value[0] <= m <= self.value[1] for m in measured)
        return all(_RELATIONS[self.compare](m, self.value) for m in measured)

    def __format__(self, spec: str) -> str:
        spec = spec or "g"
        if self.compare == "in":
            return f"in [{self.value[0]:{spec}}, {self.value[1]:{spec}}]"
        return f"{self.compare} {self.value:{spec}}"


# the bound of every guarantee `gn1d verify` checks; the acceptance suite
# checks them on its own samples
BOUNDS = {
    "assembly": Bound(">=", 1.0),  # 1 when the operator could be assembled
    "symmetry": Bound("<=", 0.0),  # max |T - T^T|, so exactly 0
    "coercivity_margin": Bound(">=", 1.0),  # Rayleigh ratio over coercivity_bound
    "solve": Bound("<=", 1e-12),  # solve residual and round trip
    "energy_identity": Bound("<=", 1e-13),
    "source_decomposition": Bound("<=", 1e-10),
    "formulation_equivalence": Bound("<=", 1e-9),
    "cutoff_commutation": Bound("<=", 1e-13),
    "cutoff_adjointness": Bound("<=", 1e-13),
    "inverse_bound_spread": Bound("<=", 10.0),  # both spreads across mu
    "equivalence_spread": Bound("<=", 10.0),  # upper and lower
    "energy_drift": Bound("<=", 1e-6),
    "mass_drift": Bound("<=", 1e-12),
}


def symmetry_defect(op: TOperator) -> float:
    """Largest entry of |T - T^T| for the assembled matrix (0 by construction)."""
    dense = op.banded.to_dense()
    return float(np.max(np.abs(dense - dense.T)))


def solve_residual(op: TOperator, f: np.ndarray) -> float:
    """|T w - f| / |f| for w = solve_T(op, f)."""
    w = solve_T(op, f)
    return float(np.linalg.norm(apply_T(op, w) - f) / np.linalg.norm(f))


def round_trip(op: TOperator, g: np.ndarray) -> float:
    """|T^{-1} T g - g| / |g|."""
    return float(np.linalg.norm(solve_T(op, apply_T(op, g)) - g) / np.linalg.norm(g))


def coercivity_bound(params: Parameters) -> float:
    """Guaranteed lower bound h0 / max(1, 18/h0^2) on the quadratic form."""
    return params.h0 / max(1.0, 18.0 / params.h0**2)


def rayleigh_ratio(op: TOperator, v: np.ndarray) -> float:
    """(T v, v) / (|v|^2 + mu |D v|^2), bounded below by coercivity_bound(params)."""
    grid, mu = op.grid, op.params.mu
    dv = d1_fd(grid).apply(v)
    return inner_product(apply_T(op, v), v, grid) / (
        inner_product(v, v, grid) + mu * inner_product(dv, dv, grid)
    )


def _sweep_field(rng: np.random.Generator, grid: Grid, s: float) -> np.ndarray:
    """Random smooth field with an H^s-flat spectrum up to ~0.45 k_max.

    The broad spectral support matters: it keeps the measured inverse
    bounds sensitive to the mu-dependent part of the operator even at
    tiny mu, where narrow-band fields would report a vanishing constant.
    """
    k = grid.wavenumbers()
    kc = 0.45 * k.max()
    coeff = np.fft.rfft(rng.standard_normal(grid.n))
    coeff *= (1.0 + k * k) ** (-0.5 * s) * np.exp(-((k / kc) ** 2))
    return np.fft.irfft(coeff, grid.n)


def inverse_bound_spreads(
    depths: list[np.ndarray], bathymetry: Bathymetry, grid: Grid, trials: int, seed: int
) -> tuple[float, float]:
    """Worst max/min ratio across mu of the two inverse-operator constants.

    r1 bounds |T^{-1} f| in the dispersive Sobolev pair, r2 bounds
    sqrt(mu) |T^{-1} D g| (D = d1_fd, as in the assembly); both are
    measured relative to |.|_{H^s} of the data (s = SWEEP_S), maximized
    over random trial fields, at every (eps, mu) of the sweep grid.  The
    spreads are taken across mu for each depth and eps, and the worst is
    returned.
    """
    s = SWEEP_S
    rng = np.random.default_rng(seed)
    fs = [_sweep_field(rng, grid, s) for _ in range(trials)]
    gs = [_sweep_field(rng, grid, s) for _ in range(trials)]
    # the data's |.|_{H^s}, the same at every depth and (eps, mu)
    fs_hs, gs_hs = ([l2_norm(lambda_s(x, s, grid), grid) for x in xs] for xs in (fs, gs))
    worst1 = worst2 = 1.0
    for h in depths:
        for eps in SWEEP_EPSILONS:
            r1s, r2s = [], []
            for mu in SWEEP_MUS:
                params = Parameters(epsilon=eps, mu=mu, h0=SWEEP_H0)
                op = assemble_T(h, bathymetry, params, grid)
                r1 = r2 = 0.0
                for f, g, f_hs, g_hs in zip(fs, gs, fs_hs, gs_hs):
                    w = solve_T(op, f)
                    lw, lwx = lambda_s(np.array((w, d1_spectral(w, grid))), s, grid)
                    r1 = max(r1, (l2_norm(lw, grid) + np.sqrt(mu) * l2_norm(lwx, grid)) / f_hs)
                    v = lambda_s(solve_T(op, d1_fd(grid).apply(g)), s, grid)
                    r2 = max(r2, np.sqrt(mu) * l2_norm(v, grid) / g_hs)
                r1s.append(r1)
                r2s.append(r2)
            worst1 = max(worst1, max(r1s) / min(r1s))
            worst2 = max(worst2, max(r2s) / min(r2s))
    return worst1, worst2


def source_defect(zu: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid) -> float:
    """Relative defect of the split source Q1[U] u_x + q2(U) against eps mu h Q(u)."""
    zeta, u = zu
    h = compute_depth(zeta, bathymetry, params)
    ux = d1_spectral(u, grid)
    whole = params.epsilon * params.mu * h * q_total(h, u, ux, bathymetry, params, grid)
    fields = coefficient_fields(h, u, bathymetry, params, grid)
    split = q1_apply(fields, ux, params, grid) + fields.q2
    return float(np.linalg.norm(split - whole) / np.linalg.norm(whole))


def formulation_gap(
    zu: np.ndarray, bathymetry: Bathymetry, params: Parameters, grid: Grid
) -> float:
    """Relative gap between the direct and the condensed tendency at the state zu."""
    direct = nonlinear_rhs(zu, bathymetry, params, grid)
    gap = direct - condensed_rhs(zu, bathymetry, params, grid)
    return float(np.linalg.norm(gap) / np.linalg.norm(direct))


def mollifier_adjoint_defect(f: np.ndarray, g: np.ndarray, mol: np.ndarray, grid: Grid) -> float:
    """|(J f, g) - (f, J g)| / (f, f) for the cutoff J of symbol mol."""
    adj = abs(
        inner_product(mollify(f, mol, grid), g, grid)
        - inner_product(f, mollify(g, mol, grid), grid)
    )
    return adj / abs(inner_product(f, f, grid))


def mollifier_commutation(f: np.ndarray, mol: np.ndarray, grid: Grid) -> float:
    """|Lambda^s J f - J Lambda^s f| / |Lambda^s J f| for J of symbol mol, s = SWEEP_S."""
    a = lambda_s(mollify(f, mol, grid), SWEEP_S, grid)
    b = mollify(lambda_s(f, SWEEP_S, grid), mol, grid)
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def equivalence_spreads(report: np.ndarray) -> np.ndarray:
    """Max/min spread of the upper and of the lower E^s / X^s ratio of an equivalence_report."""
    return report.max(axis=(0, 1)) / report.min(axis=(0, 1))


def energy_drift(history: list[DiagnosticRecord]) -> float:
    """Largest energy deviation from the first record, relative to it."""
    e0 = history[0].energy
    return max(abs(r.energy - e0) for r in history) / e0


def mass_drift(history: list[DiagnosticRecord]) -> float:
    """Largest absolute mass deviation from the first record."""
    m0 = history[0].mass
    return max(abs(r.mass - m0) for r in history)


# ---------------------------------------------------------------------------
# verification suite


def _check(name: str, measured: float, bound: Bound, ok: bool = True):
    """One table row; it passes when ok and the bound holds."""
    return name, measured, bound, ok and bound.holds(measured)


def _report(checks: list[tuple]) -> int:
    width = max(len(c[0]) for c in checks)
    for name, measured, bound, ok in checks:
        print(
            f"{name:<{width}}  measured {measured:.6e}  "
            f"required {bound:.6e}  {'PASS' if ok else 'FAIL'}"
        )
    passed = sum(c[-1] for c in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 3


def _verify_state(rng, grid, bathymetry):
    """Random band-limited state over the given bottom, a (2, n) stack; at
    verify's eps = 0.5 its depth 1 + eps (zeta - b) is at least 0.875."""
    k = grid.wavenumbers()
    k_cut = k.max() / 5.0
    def field(scale):
        coeff = np.fft.rfft(rng.standard_normal(grid.n))
        coeff[k > k_cut] = 0.0
        f = np.fft.irfft(coeff, grid.n)
        return scale * f / np.max(np.abs(f))
    return np.array((bathymetry.b + field(0.25), field(0.3)))


def verify_suite(seed: int) -> int:
    """Run the property checks on states drawn from seed (>= 0) and print a
    pass/fail table; 0 when every row passes, else 3."""
    rng = np.random.default_rng(seed)
    grid = Grid(128, 2.0 * np.pi)
    x = grid.nodes()
    bathymetry = Bathymetry.from_profile(
        0.15 * np.cos(2.0 * x) + 0.08 * np.sin(5.0 * x), grid
    )
    params = Parameters(0.5, 0.3, h0=0.25)

    # operator symmetry, coercivity, and solve accuracy
    sym_worst = res_worst = round_worst = 0.0
    coer_margin = np.inf
    for _ in range(6):
        zu = _verify_state(rng, grid, bathymetry)
        try:
            op = assemble_T(compute_depth(zu[0], bathymetry, params), bathymetry, params, grid)
        except StopError as exc:
            print(f"{exc.status}: {exc}", file=sys.stderr)  # no time or stage: no march
            return _report([_check("operator assembly succeeded", 0.0, BOUNDS["assembly"])])
        sym_worst = max(sym_worst, symmetry_defect(op))
        trial = np.random.default_rng(int(rng.integers(2**31)))
        ratio = min(rayleigh_ratio(op, trial.standard_normal(grid.n)) for _ in range(8))
        coer_margin = min(coer_margin, ratio / coercivity_bound(params))
        res_worst = max(res_worst, solve_residual(op, rng.standard_normal(grid.n)))
        round_worst = max(round_worst, round_trip(op, rng.standard_normal(grid.n)))

    # energy identity: assembled quadratic form vs factorized evaluation
    ident_worst = 0.0
    for _ in range(4):
        h = compute_depth(_verify_state(rng, grid, bathymetry)[0], bathymetry, params)
        op = assemble_T(h, bathymetry, params, grid)
        w = rng.standard_normal(grid.n)
        quad = inner_product(apply_T(op, w), w, grid)
        split = weighted_velocity_form(w, h, bathymetry, params, grid)
        ident_worst = max(ident_worst, abs(quad - split) / abs(split))

    # source decomposition and formulation equivalence on band-limited states
    dec_worst = equiv_worst = 0.0
    for _ in range(6):
        zu = _verify_state(rng, grid, bathymetry)
        dec_worst = max(dec_worst, source_defect(zu, bathymetry, params, grid))
        equiv_worst = max(equiv_worst, formulation_gap(zu, bathymetry, params, grid))

    # cutoff operator: smoothing-commutation and self-adjointness
    mol = cutoff_symbol(4.0 / grid.wavenumbers().max(), grid)
    comm_worst = adj_worst = 0.0
    for _ in range(4):
        f = rng.standard_normal(grid.n)
        g = rng.standard_normal(grid.n)
        comm_worst = max(comm_worst, mollifier_commutation(f, mol, grid))
        adj_worst = max(adj_worst, mollifier_adjoint_defect(f, g, mol, grid))

    # parameter sweeps: inverse bounds and norm equivalence
    sweep_depths = [
        compute_depth(_verify_state(rng, grid, bathymetry)[0], bathymetry, params)
        for _ in range(2)
    ]
    spread1, spread2 = inverse_bound_spreads(
        sweep_depths, bathymetry, grid, trials=3, seed=seed + 1
    )

    pairs = [
        tuple(_verify_state(rng, grid, bathymetry) for _ in range(2)) for _ in range(4)
    ]
    eq = equivalence_report(pairs, bathymetry, grid)
    hi, lo = equivalence_spreads(eq)

    # short conservation run on the demo solitary wave
    run_grid = Grid(256, 60.0)
    run_params = Parameters(0.5, 0.5, h0=0.25)
    wave = solitary_wave(0.4, run_params, run_grid)
    outcome = run(
        wave, Bathymetry.flat(run_grid), run_params, run_grid,
        StepControl(t_end=2.0, cfl=0.5),
    )
    drift = energy_drift(outcome.history)

    return _report([
        _check("operator symmetry (max abs)", sym_worst, BOUNDS["symmetry"]),
        _check("coercivity margin (min ratio/bound)", coer_margin, BOUNDS["coercivity_margin"]),
        _check("solve residual (relative)", res_worst, BOUNDS["solve"]),
        _check("solve round-trip (relative)", round_worst, BOUNDS["solve"]),
        _check("energy identity (relative)", ident_worst, BOUNDS["energy_identity"]),
        _check("source decomposition (relative)", dec_worst, BOUNDS["source_decomposition"]),
        _check(
            "formulation equivalence (relative)", equiv_worst, BOUNDS["formulation_equivalence"]
        ),
        _check("cutoff commutation (relative)", comm_worst, BOUNDS["cutoff_commutation"]),
        _check("cutoff self-adjointness (relative)", adj_worst, BOUNDS["cutoff_adjointness"]),
        _check("inverse bound spread (first)", spread1, BOUNDS["inverse_bound_spread"]),
        _check("inverse bound spread (derivative)", spread2, BOUNDS["inverse_bound_spread"]),
        _check("norm equivalence spread (upper)", hi, BOUNDS["equivalence_spread"]),
        _check("norm equivalence spread (lower)", lo, BOUNDS["equivalence_spread"]),
        _check("energy drift (relative, t=2)", drift, BOUNDS["energy_drift"], ok=outcome.completed),
        _check("mass drift (absolute, t=2)", mass_drift(outcome.history), BOUNDS["mass_drift"]),
    ])
