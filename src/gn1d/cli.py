"""Command-line front end: configured runs, verification, scenario listing.

Config files are plain `key = value` lines with `#` comments.  Outputs
are whitespace-separated text with 17 significant digits, so a rerun of
the same config and seed reproduces every byte.

Exit codes: 0 success, 1 blow-up termination, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    Bathymetry,
    DepthError,
    FactorizationError,
    Grid,
    NonFiniteError,
    Parameters,
    State,
    compute_depth,
)
from .checks import (
    coercivity_bound,
    energy_drift,
    equivalence_spreads,
    formulation_gap,
    inverse_bound_sweep,
    mass_drift,
    mollifier_adjoint_defect,
    mollifier_commutation,
    rayleigh_ratio,
    round_trip,
    solve_residual,
    source_defect,
    sweep_spreads,
    symmetry_defect,
)
from .diagnostics import DiagnosticRecord, equivalence_report, record_for, weighted_velocity_form
from .grid_ops import inner_product
from .linearized import Mollifier, ReferenceTrajectory, picard_solve, solve_linear
from .scenarios import SCENARIOS, build_scenario, solitary_wave
from .t_operator import apply_T, assemble_T
from .time_integrator import StepControl, run


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run, with defaults that produce a sensible demo.

    Zero sentinels: h0 = 0 floors the depth at half the initial minimum,
    dt_max = 0 leaves the step purely CFL-limited, snapshot_every = 0
    disables field snapshots, mollifier_delta = 0 disables the cutoff,
    x0 = -1 centers profiles in the domain.
    """

    scenario: str = "solitary"
    bathymetry_file: str = ""
    n: int = 256
    length: float = 60.0
    epsilon: float = 0.5
    mu: float = 0.5
    h0: float = 0.0
    amplitude: float = 0.4
    width: float = 2.0
    bar_height: float = 0.3
    bar_width: float = 4.0
    x0: float = -1.0
    cfl: float = 0.5
    dt_max: float = 0.0
    t_end: float = 10.0
    snapshot_every: float = 0.0
    output_dir: str = "out"
    mode: str = "nonlinear"
    s: float = 2.0
    blowup_factor: float = 1e3
    seed: int = 1234
    picard_tol: float = 1e-8
    picard_max_iters: int = 25
    mollifier_delta: float = 0.0
    verify_break_depth: bool = False


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_value(raw: str, target_type: type, key: str, lineno: int):
    raw = raw.strip()
    try:
        if target_type is bool:
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError
            return _BOOL_WORDS[word]
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse {raw!r} as {target_type.__name__} for key {key!r}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig.

    Unknown keys, malformed lines, and untypable values are reported
    with their line number.
    """
    types = {f.name: f.type for f in fields(RunConfig)}
    # dataclass fields carry annotations as strings under future-imports
    real_types = {"str": str, "int": int, "float": float, "bool": bool}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        t = types[key]
        t = real_types[t] if isinstance(t, str) else t
        values[key] = _parse_value(raw, t, key, lineno)
    return RunConfig(**values)


def dump_config(cfg: RunConfig | None = None) -> str:
    """Render a config that parses back to exactly the same values."""
    cfg = cfg or RunConfig()
    lines = ["# gn1d run configuration (defaults shown by `gn1d dump-config`)"]
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def load_bathymetry(path: str, grid: Grid) -> Bathymetry:
    """Read a two-column `x b(x)` file and resample onto the grid.

    The samples must be finite, at least 8 rows, strictly increasing,
    uniformly spaced, and cover exactly one period of the domain.  The
    resampling is trigonometric, so band-limited profiles are exact.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.split()
                if len(parts) != 2:
                    raise ConfigError(
                        f"{path}:{lineno}: expected two columns `x b`, got {len(parts)}"
                    )
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: non-numeric entry") from None
    except OSError as exc:
        raise ConfigError(f"cannot read bathymetry {path!r}: {exc}") from exc

    if len(rows) < 8:
        raise ConfigError(f"{path}: need at least 8 samples, got {len(rows)}")
    xs = np.array([r[0] for r in rows])
    bs = np.array([r[1] for r in rows])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(bs))):
        raise ConfigError(f"{path}: non-finite sample values")
    dxs = np.diff(xs)
    if np.any(dxs <= 0.0):
        raise ConfigError(f"{path}: sample positions must be strictly increasing")
    step = dxs.mean()
    if np.max(np.abs(dxs - step)) > 1e-8 * step:
        raise ConfigError(f"{path}: sample positions must be uniformly spaced")
    period = step * len(rows)
    if abs(period - grid.length) > 1e-8 * grid.length:
        raise ConfigError(
            f"{path}: samples cover {period:.12g}, domain length is {grid.length:.12g}"
        )

    m = len(rows)
    coeff = np.fft.rfft(bs) / m
    if m % 2 == 0:
        # the sampled Nyquist mode is a cosine about the first sample,
        # shared equally by wavenumbers +m/2 and -m/2 (Trefethen ch. 3)
        coeff[m // 2] *= 0.5
    # place the sampled modes into the target resolution, shifting phases
    # so the interpolant is evaluated at the grid nodes starting from 0
    n = grid.n
    keep = min(m // 2, n // 2)
    target = np.zeros(n // 2 + 1, dtype=complex)
    target[: keep + 1] = coeff[: keep + 1]
    j = np.arange(keep + 1)
    target[: keep + 1] *= np.exp(-2j * np.pi * j * xs[0] / grid.length)
    # on the grid nodes +n/2 and -n/2 coincide as one pure cosine
    target[n // 2] = 2.0 * target[n // 2].real
    b = np.fft.irfft(target * n, n)
    return Bathymetry.from_profile(b, grid)


_TIMESERIES_HEADER = "# t energy mass min_h xs_norm es_norm"
_SNAPSHOT_HEADER = "# x zeta u b h"
_SNAPSHOT_ROW = "%.17g %.17g %.17g %.17g %.17g\n"


def emit_timeseries(records: list[DiagnosticRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TIMESERIES_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.t:.17g} {r.energy:.17g} {r.mass:.17g} "
                f"{r.min_h:.17g} {r.xs:.17g} {r.es:.17g}\n"
            )


def emit_snapshot(
    state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid, path: str
) -> None:
    h = compute_depth(state, bathymetry, params)
    rows = np.stack((grid.nodes(), state.zeta, state.u, bathymetry.b, h), axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_SNAPSHOT_HEADER + "\n")
        fh.write((_SNAPSHOT_ROW * grid.n) % tuple(rows.ravel().tolist()))


def snapshot_path(output_dir: str, step: int) -> str:
    return os.path.join(output_dir, f"snap_{step:06d}.dat")


@dataclass(frozen=True)
class PreparedRun:
    cfg: RunConfig
    grid: Grid
    params: Parameters
    state: State
    bathymetry: Bathymetry
    control: StepControl


def prepare_run(cfg: RunConfig) -> PreparedRun:
    """Materialize grid, parameters, initial data, and bathymetry."""
    # every comparison below is written so that NaN fails it
    if cfg.mode not in ("nonlinear", "linearized", "picard"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if not cfg.n >= 8:
        raise ConfigError(f"n must be at least 8 for the 5-point stencil, got {cfg.n}")
    for name in ("s", "x0", "amplitude", "bar_height"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    for name in ("blowup_factor", "picard_tol"):
        if not getattr(cfg, name) > 0.0:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")
    if not cfg.picard_max_iters >= 1:
        raise ConfigError(f"picard_max_iters must be at least 1, got {cfg.picard_max_iters}")
    for name in ("h0", "dt_max", "snapshot_every", "mollifier_delta"):
        if not getattr(cfg, name) >= 0.0:
            raise ConfigError(f"{name} must be >= 0 (0 disables it), got {getattr(cfg, name)}")
    try:
        grid = Grid(cfg.n, cfg.length)
        control = StepControl(
            t_end=cfg.t_end,
            cfl=cfg.cfl,
            dt_max=cfg.dt_max if cfg.dt_max > 0.0 else math.inf,
        )
        # build with a provisional floor; the configured/derived floor is applied below
        probe = Parameters(cfg.epsilon, cfg.mu, h0=1e-12)
        state, bathymetry = build_scenario(
            cfg.scenario, grid, probe, cfg.amplitude, cfg.width,
            cfg.bar_height, cfg.bar_width, None if cfg.x0 < 0.0 else cfg.x0,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.bathymetry_file:
        bathymetry = load_bathymetry(cfg.bathymetry_file, grid)

    min_h = float(compute_depth(state, bathymetry, probe).min())
    if cfg.h0 > 0.0:
        h0 = cfg.h0
    else:
        h0 = 0.5 * min_h  # default floor: half the initial minimum depth
    try:
        params = Parameters(cfg.epsilon, cfg.mu, h0=h0)
    except ValueError as exc:
        raise ConfigError(f"derived depth floor is not admissible: {exc}") from exc
    if min_h < params.h0:
        raise ConfigError(
            f"initial state violates the depth floor: min depth {min_h:.6g} < h0 {params.h0:.6g}"
        )
    return PreparedRun(cfg, grid, params, state, bathymetry, control)


def _run_nonlinear(prep: PreparedRun) -> int:
    cfg = prep.cfg
    sink = None
    if cfg.snapshot_every > 0.0:
        def sink(step: int, state: State) -> None:
            emit_snapshot(
                state, prep.bathymetry, prep.params, prep.grid,
                snapshot_path(cfg.output_dir, step),
            )
    outcome = run(
        prep.state, prep.bathymetry, prep.params, prep.grid, prep.control,
        s=cfg.s, norm_factor=cfg.blowup_factor,
        snapshot_every=cfg.snapshot_every if cfg.snapshot_every > 0.0 else None,
        snapshot_sink=sink,
    )
    emit_timeseries(outcome.history, os.path.join(cfg.output_dir, "timeseries.dat"))
    last = outcome.history[-1]
    print(
        f"{outcome.status}: t = {last.t:.6g}, steps = {outcome.steps}, "
        f"energy = {last.energy:.12g}, min_h = {last.min_h:.6g}"
    )
    return 0 if outcome.completed else 1


def _reference_from_nonlinear(prep: PreparedRun) -> ReferenceTrajectory | None:
    states: list[State] = []
    outcome = run(
        prep.state, prep.bathymetry, prep.params, prep.grid, prep.control,
        s=prep.cfg.s, norm_factor=prep.cfg.blowup_factor,
        snapshot_every=None, snapshot_sink=lambda step, st: states.append(st),
    )
    if not outcome.completed:
        print(f"reference run terminated early: {outcome.status}", file=sys.stderr)
        return None
    return ReferenceTrajectory.from_states(states)


def _mollifier(prep: PreparedRun) -> Mollifier | None:
    delta = prep.cfg.mollifier_delta
    return Mollifier.for_grid(delta, prep.grid) if delta > 0.0 else None


def _emit_trajectory(prep: PreparedRun, sol: ReferenceTrajectory) -> list[DiagnosticRecord]:
    """Write one diagnostic record per stored snapshot to timeseries.dat."""
    records = [
        record_for(
            State(sol.zetas[j], sol.us[j], float(sol.times[j])),
            prep.bathymetry, prep.params, prep.grid, prep.cfg.s,
        )
        for j in range(sol.times.size)
    ]
    emit_timeseries(records, os.path.join(prep.cfg.output_dir, "timeseries.dat"))
    return records


def _run_linearized(prep: PreparedRun) -> int:
    reference = _reference_from_nonlinear(prep)
    if reference is None:
        return 1
    sol = solve_linear(
        reference, prep.state, prep.bathymetry, prep.params, prep.grid,
        prep.control, mollifier=_mollifier(prep),
    )
    records = _emit_trajectory(prep, sol)
    print(
        f"completed: linearized solve to t = {sol.t1:.6g} "
        f"({sol.times.size - 1} steps), es_norm = {records[-1].es:.12g}"
    )
    return 0


def _run_picard(prep: PreparedRun) -> int:
    cfg = prep.cfg
    result = picard_solve(
        prep.state, prep.bathymetry, prep.params, prep.grid, prep.control,
        max_iters=cfg.picard_max_iters, tol=cfg.picard_tol, s=cfg.s,
        mollifier=_mollifier(prep),
    )
    for i, gap in enumerate(result.gaps, start=1):
        print(f"iteration {i}: gap = {gap:.6e}")
    _emit_trajectory(prep, result.trajectory)
    if result.converged:
        print(f"converged in {result.iterations} iterations")
        return 0
    print(f"not converged after {result.iterations} iterations", file=sys.stderr)
    return 1


def command_run(cfg: RunConfig) -> int:
    prep = prepare_run(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    # an overflowing state is reported by the finite checks and monitors;
    # numpy's warnings on the way there would only precede that message
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.mode == "nonlinear":
                return _run_nonlinear(prep)
            if cfg.mode == "linearized":
                return _run_linearized(prep)
            return _run_picard(prep)
    except (DepthError, FactorizationError, NonFiniteError) as exc:
        print(f"terminated: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# verification suite


def _check(name: str, measured: float, threshold: float, compare: str = "<=", ok=None):
    """One table row; ok defaults to the comparison it prints."""
    if ok is None:
        ok = measured <= threshold if compare == "<=" else measured >= threshold
    return name, measured, compare, threshold, ok


def _report(checks: list[tuple]) -> int:
    width = max(len(c[0]) for c in checks)
    for name, measured, compare, threshold, ok in checks:
        print(
            f"{name:<{width}}  measured {measured:.6e}  "
            f"required {compare} {threshold:.6e}  {'PASS' if ok else 'FAIL'}"
        )
    passed = sum(c[-1] for c in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 3


def _verify_state(rng, grid, bathymetry, params):
    """Random band-limited admissible state over the given bottom."""
    k = grid.wavenumbers()
    k_cut = k.max() / 5.0
    def field(scale):
        coeff = np.fft.rfft(rng.standard_normal(grid.n))
        coeff[k > k_cut] = 0.0
        f = np.fft.irfft(coeff, grid.n)
        return scale * f / np.max(np.abs(f))
    zeta = bathymetry.b + field(0.25)
    # lift the surface until the depth clears the floor comfortably
    h = 1.0 + params.epsilon * (zeta - bathymetry.b)
    lift = params.h0 * 1.5 - h.min()
    if lift > 0.0:
        zeta = zeta + lift / params.epsilon
    return State(zeta, field(0.3))


def verify_suite(cfg: RunConfig) -> int:
    """Run the property checks and report a pass/fail table."""
    rng = np.random.default_rng(cfg.seed)
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
        state = _verify_state(rng, grid, bathymetry, params)
        if cfg.verify_break_depth:
            state = State(state.zeta - 2.0 / params.epsilon, state.u)
        try:
            op = assemble_T(compute_depth(state, bathymetry, params), bathymetry, params, grid)
        except (DepthError, FactorizationError):
            return _report([_check("operator assembly succeeded", 0.0, 1.0, ">=")])
        sym_worst = max(sym_worst, symmetry_defect(op))
        trial = np.random.default_rng(int(rng.integers(2**31)))
        ratio = min(rayleigh_ratio(op, trial.standard_normal(grid.n)) for _ in range(8))
        coer_margin = min(coer_margin, ratio / coercivity_bound(params))
        res_worst = max(res_worst, solve_residual(op, rng.standard_normal(grid.n)))
        round_worst = max(round_worst, round_trip(op, rng.standard_normal(grid.n)))

    # energy identity: assembled quadratic form vs factorized evaluation
    ident_worst = 0.0
    for _ in range(4):
        state = _verify_state(rng, grid, bathymetry, params)
        h = compute_depth(state, bathymetry, params)
        op = assemble_T(h, bathymetry, params, grid)
        w = rng.standard_normal(grid.n)
        quad = inner_product(apply_T(op, w), w, grid)
        split = weighted_velocity_form(w, h, bathymetry, params, grid)
        ident_worst = max(ident_worst, abs(quad - split) / abs(split))

    # source decomposition and formulation equivalence on band-limited states
    dec_worst = equiv_worst = 0.0
    for _ in range(6):
        state = _verify_state(rng, grid, bathymetry, params)
        dec_worst = max(dec_worst, source_defect(state, bathymetry, params, grid))
        equiv_worst = max(equiv_worst, formulation_gap(state, bathymetry, params, grid))

    # cutoff operator: smoothing-commutation and self-adjointness
    mol = Mollifier.for_grid(4.0 / grid.wavenumbers().max(), grid)
    comm_worst = adj_worst = 0.0
    for _ in range(4):
        f = rng.standard_normal(grid.n)
        g = rng.standard_normal(grid.n)
        comm_worst = max(comm_worst, mollifier_commutation(f, mol, grid))
        adj_worst = max(adj_worst, mollifier_adjoint_defect(f, g, mol, grid))

    # parameter sweeps: inverse bounds and norm equivalence
    sweep_states = []
    for _ in range(2):
        st = _verify_state(rng, grid, bathymetry, params)
        sweep_states.append((compute_depth(st, bathymetry, params), bathymetry))
    mus = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    records = inverse_bound_sweep(
        sweep_states,
        [(e, m) for e in (0.1, 1.0) for m in mus],
        s=2.0, grid=grid, trials=3, seed=cfg.seed + 1,
    )
    spread1, spread2 = sweep_spreads(records)

    pair_states = []
    for _ in range(4):
        st = _verify_state(rng, grid, bathymetry, params)
        ref = _verify_state(rng, grid, bathymetry, params)
        pair_states.append((st, ref))
    eq = equivalence_report(
        pair_states, bathymetry,
        [(e, m) for e in (0.1, 1.0) for m in mus], grid, s=2.0,
    )
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
        _check("operator symmetry (max abs)", sym_worst, 0.0),
        _check("coercivity margin (min ratio/bound)", coer_margin, 1.0, ">="),
        _check("solve residual (relative)", res_worst, 1e-12),
        _check("solve round-trip (relative)", round_worst, 1e-12),
        _check("energy identity (relative)", ident_worst, 1e-13),
        _check("source decomposition (relative)", dec_worst, 1e-10),
        _check("formulation equivalence (relative)", equiv_worst, 1e-9),
        _check("cutoff commutation (relative)", comm_worst, 1e-13),
        _check("cutoff self-adjointness (relative)", adj_worst, 1e-13),
        _check("inverse bound spread (first)", spread1, 10.0),
        _check("inverse bound spread (derivative)", spread2, 10.0),
        _check("norm equivalence spread (upper)", hi, 10.0),
        _check("norm equivalence spread (lower)", lo, 10.0),
        _check("energy drift (relative, t=2)", drift, 1e-6, ok=outcome.completed and drift <= 1e-6),
        _check("mass drift (absolute, t=2)", mass_drift(outcome.history), 1e-12),
    ])


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gn1d",
        description="Dispersive shallow-water solver on a periodic 1D domain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured scenario")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")

    p_verify = sub.add_parser("verify", help="run the analytical property checks")
    p_verify.add_argument("--config", default=None, help="optional config (seed, hooks)")
    p_verify.add_argument("--seed", type=int, default=None, help="override the RNG seed")

    sub.add_parser("scenarios", help="list the named scenarios")

    p_dump = sub.add_parser("dump-config", help="print the default configuration")
    p_dump.add_argument("--config", default=None, help="start from this config instead")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return command_run(load_config(args.config))
        if args.command == "verify":
            cfg = load_config(args.config) if args.config else RunConfig()
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            return verify_suite(cfg)
        if args.command == "scenarios":
            width = max(len(name) for name in SCENARIOS)
            for name in sorted(SCENARIOS):
                print(f"{name:<{width}}  {SCENARIOS[name].description}")
            return 0
        if args.command == "dump-config":
            cfg = load_config(args.config) if args.config else RunConfig()
            sys.stdout.write(dump_config(cfg))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
