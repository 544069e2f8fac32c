"""Command-line front end: configured runs, verification, scenario listing.

`gn1d verify` runs `checks.verify_suite`, which draws its samples from
the seed; this module only refuses a negative seed.

Config files are plain `key = value` lines with `#` comments.  Outputs
are whitespace-separated text with 17 significant digits, so a rerun of
the same config and seed reproduces every byte.

Exit codes: 0 success, 1 blow-up or non-convergence, 2 configuration
error (an input file that cannot be read or decoded as UTF-8, or an
output file that cannot be written, included), 3 verification failure.
Every mode ends in one labeled outcome; a stop prints `status: reason` on stderr.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .checks import verify_suite
from .core import (
    Bathymetry, DepthError, Grid, Parameters, State, StopError, compute_depth, quiet_overflow,
    require_depth,
)
from .diagnostics import DiagnosticRecord, record_for, xs_norm
from .linearized import ReferenceTrajectory, cutoff_symbol, picard_solve, solve_linear
from .scenarios import SCENARIOS, build_scenario
from .time_integrator import RunOutcome, StepControl, cfl_dt, require_step, run


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run, with defaults that produce a sensible demo.

    Zero sentinels: h0 = 0 floors the depth at half the initial minimum
    (at most 1), dt_max = 0 leaves the step purely CFL-limited,
    snapshot_every = 0 disables field snapshots, mollifier_delta = 0
    disables the cutoff, x0 = -1 centers profiles in the domain.
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
    picard_tol: float = 1e-8
    picard_max_iters: int = 25
    mollifier_delta: float = 0.0


def _parse_value(raw: str, target_type: type, key: str, lineno: int):
    raw = raw.strip()
    try:
        return target_type(raw)  # int, float or str: each field's type parses it
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse {raw!r} as {target_type.__name__} for key {key!r}"
        ) from None


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 input file; one that cannot be read is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _lines(text: str):
    """(lineno, line, body) of each str.splitlines line of an input file
    whose body, the line without its `#` comment and outer whitespace, is not empty."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, line, body


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig.

    Unknown or repeated keys, malformed lines, and untypable values are
    reported with their line number.
    """
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    for lineno, line, body in _lines(text):
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(raw, types[key], key, lineno)
    return RunConfig(**values)


def dump_config(cfg: RunConfig | None = None) -> str:
    """Render a config that parses back to exactly the same values.

    Raises ConfigError for a string value that no config line holds as it
    is: one with a `#`, a line break, or leading or trailing whitespace.
    """
    cfg = cfg or RunConfig()
    lines = ["# gn1d run configuration (defaults shown by `gn1d dump-config`)"]
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float):
            v = repr(v)
        elif isinstance(v, str) and ("#" in v or v != v.strip() or len(v.splitlines()) > 1):
            raise ConfigError(f"{f.name} = {v!r} cannot be written as a config line")
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    return parse_config(_read_text(path, "config"))


@quiet_overflow
def load_bathymetry(path: str, grid: Grid) -> Bathymetry:
    """Read a two-column `x b(x)` file and resample onto the grid.

    The samples must be finite, at least 8 rows, strictly increasing,
    uniformly spaced, and cover exactly one period of the domain, and the
    resampled bottom and its derivatives must be finite.  The resampling
    is trigonometric, so band-limited profiles are exact.
    """
    rows = []
    for lineno, _, body in _lines(_read_text(path, "bathymetry")):
        parts = body.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected two columns `x b`, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric entry") from None

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
    bathymetry = Bathymetry.from_profile(np.fft.irfft(target * n, n), grid)
    if not all(np.isfinite(a).all() for a in (bathymetry.b, bathymetry.b_x, bathymetry.b_xx)):
        raise ConfigError(f"{path}: the resampled bottom or its derivatives are not finite")
    return bathymetry


_TIMESERIES_HEADER = "# t energy mass min_h xs_norm es_norm"
_SNAPSHOT_HEADER = "# x zeta u b h"


def _write_table(path: str, header: str, rows: np.ndarray) -> None:
    """Write the header line, then each row with 17 significant digits per value."""
    row = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist()))
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def emit_timeseries(records: list[DiagnosticRecord], path: str) -> None:
    _write_table(path, _TIMESERIES_HEADER, np.array(records, dtype=float))


def emit_snapshot(
    state: State, bathymetry: Bathymetry, params: Parameters, grid: Grid, path: str
) -> None:
    h = compute_depth(state.zeta, bathymetry, params)
    rows = np.stack((grid.nodes(), state.zeta, state.u, bathymetry.b, h), axis=1)
    _write_table(path, _SNAPSHOT_HEADER, rows)


def snapshot_path(output_dir: str, step: int) -> str:
    return os.path.join(output_dir, f"snap_{step:06d}.dat")


def timeseries_path(output_dir: str) -> str:
    return os.path.join(output_dir, "timeseries.dat")


@dataclass(frozen=True)
class PreparedRun:
    cfg: RunConfig
    grid: Grid
    params: Parameters
    state: State
    bathymetry: Bathymetry
    control: StepControl
    mollifier: np.ndarray | None  # the linear modes' cutoff symbol; None when delta = 0


def prepare_run(cfg: RunConfig) -> PreparedRun:
    """Materialize grid, parameters, initial data, and bathymetry.

    A start the marches would not take is a ConfigError: a depth below the
    floor (require_depth), a first step below the end tolerance
    (require_step), or, in linearized mode, a t_end so close to the start
    that the reference run takes no step (StepControl.pending).
    """
    # every comparison below is written so that NaN fails it
    if cfg.mode not in _RUNS:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    for name in ("s", "x0", "amplitude", "bar_height", "mollifier_delta"):
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
    if cfg.snapshot_every > 0.0 and cfg.mode != "nonlinear":
        raise ConfigError(f"snapshot_every is written only in nonlinear mode, not in {cfg.mode!r}")
    if cfg.mollifier_delta > 0.0 and cfg.mode == "nonlinear":
        raise ConfigError("mollifier_delta is applied only in linearized and picard mode")
    try:
        grid = Grid(cfg.n, cfg.length)
        control = StepControl(
            t_end=cfg.t_end,
            cfl=cfg.cfl,
            dt_max=cfg.dt_max if cfg.dt_max > 0.0 else math.inf,
        )
        delta = cfg.mollifier_delta
        mollifier = cutoff_symbol(delta, grid) if delta > 0.0 else None
        # build with a provisional floor; the configured/derived floor is applied below
        probe = Parameters(cfg.epsilon, cfg.mu, h0=1e-12)
        # a bottom read from a file takes the place of the scenario's own
        from_file = partial(load_bathymetry, cfg.bathymetry_file, grid)
        state, bathymetry = build_scenario(
            cfg.scenario, grid, probe, cfg.amplitude, cfg.width,
            cfg.bar_height, cfg.bar_width, None if cfg.x0 < 0.0 else cfg.x0,
            from_file if cfg.bathymetry_file else None,
        )
    # a grid too large to allocate is refused by numpy before it touches memory
    except (ValueError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc

    h = compute_depth(state.zeta, bathymetry, probe)
    if cfg.h0 > 0.0:
        h0, origin = cfg.h0, "configured"
    else:
        # default floor: half the initial minimum depth, at most 1, the
        # largest floor Parameters admits (min keeps a NaN depth NaN)
        h0, origin = min(0.5 * float(h.min()), 1.0), "derived"
    try:
        params = Parameters(cfg.epsilon, cfg.mu, h0=h0)
        require_depth(h, params)
    except ValueError as exc:
        raise ConfigError(f"{origin} depth floor is not admissible: {exc}") from exc
    except DepthError as exc:
        raise ConfigError(
            f"initial state violates the depth floor: min depth {exc.min_value:.6g} < h0 {h0:.6g}"
        ) from exc
    # an s is at fault when its norm is not finite but the X^0 norm is;
    # a state too large for any norm is left to the run's labeled outcome
    xs = xs_norm(state.zu, params, grid, cfg.s)
    if not math.isfinite(xs) and math.isfinite(xs_norm(state.zu, params, grid, 0.0)):
        raise ConfigError(f"s = {cfg.s:g} gives the initial state a non-finite X^s norm ({xs})")
    # every march ends within its end tolerance of t_end, so a shorter first
    # step is refused here (run() ends at a later one as blowup_norm)
    tol = control.end_tolerance(state.time)
    if math.isfinite(xs):
        dt = cfl_dt(state.u, h, params, grid, control)
        try:
            require_step(dt, tol)
        except StopError as exc:
            raise ConfigError(
                f"cfl = {cfg.cfl:g} and dt_max = {cfg.dt_max:g} give a first step of {dt:.3g}, "
                f"shorter than the end-time tolerance {tol:.3g}: "
                f"the run would take more than 1e12 steps"
            ) from exc
    # the linear march follows its reference run(), which must take a step
    if cfg.mode == "linearized" and not control.pending(state.time, tol):
        raise ConfigError(
            f"t_end = {cfg.t_end:g} lies within the end tolerance {tol:.3g} of the start: "
            f"the linearized reference run would take no step"
        )
    return PreparedRun(cfg, grid, params, state, bathymetry, control, mollifier)


def _run_nonlinear(prep: PreparedRun) -> RunOutcome:
    cfg = prep.cfg

    def snapshot(step: int, state: State) -> None:
        emit_snapshot(
            state, prep.bathymetry, prep.params, prep.grid, snapshot_path(cfg.output_dir, step)
        )

    # a snapshot at t0, whenever snapshot_every has elapsed, and of the state
    # that ends a completed run, each time read with the march's end tolerance
    next_mark, t_end = prep.state.time, prep.control.t_end
    tol = prep.control.end_tolerance(prep.state.time)

    def on_state(step: int, state: State) -> None:
        nonlocal next_mark
        if cfg.snapshot_every > 0.0 and state.time >= min(next_mark, t_end) - tol:
            snapshot(step, state)
            next_mark += cfg.snapshot_every

    outcome = run(
        prep.state, prep.bathymetry, prep.params, prep.grid, prep.control,
        s=cfg.s, norm_factor=cfg.blowup_factor, on_state=on_state,
    )
    emit_timeseries(outcome.history, timeseries_path(cfg.output_dir))
    last = outcome.history[-1]
    print(
        f"{outcome.status}: t = {last.t:.6g}, steps = {outcome.steps}, "
        f"energy = {last.energy:.12g}, min_h = {last.min_h:.6g}"
    )
    return outcome


def _emit_trajectory(prep: PreparedRun, sol: ReferenceTrajectory) -> list[DiagnosticRecord]:
    """Write one diagnostic record per stored snapshot to timeseries.dat."""
    hs = compute_depth(sol.fields[:, 0], prep.bathymetry, prep.params)
    records = [
        record_for(State(zu, t), h, prep.bathymetry, prep.params, prep.grid, prep.cfg.s)
        for zu, t, h in zip(sol.fields, sol.times, hs)
    ]
    emit_timeseries(records, timeseries_path(prep.cfg.output_dir))
    return records


def _run_linearized(prep: PreparedRun) -> RunOutcome:
    states: list[State] = []
    outcome = run(
        prep.state, prep.bathymetry, prep.params, prep.grid, prep.control,
        s=prep.cfg.s, norm_factor=prep.cfg.blowup_factor,
        on_state=lambda step, st: states.append(st),
    )
    if not outcome.completed:
        return replace(outcome, reason=f"reference run: {outcome.reason}")
    outcome = solve_linear(
        ReferenceTrajectory.from_states(states), prep.state, prep.bathymetry, prep.params,
        prep.grid, prep.control, mollifier=prep.mollifier,
    )
    if outcome.completed:
        records = _emit_trajectory(prep, outcome.trajectory)
        print(
            f"completed: linearized solve to t = {outcome.trajectory.t1:.6g} "
            f"({outcome.steps} steps), es_norm = {records[-1].es:.12g}"
        )
    return outcome


def _run_picard(prep: PreparedRun) -> RunOutcome:
    cfg = prep.cfg
    outcome = picard_solve(
        prep.state, prep.bathymetry, prep.params, prep.grid, prep.control,
        max_iters=cfg.picard_max_iters, tol=cfg.picard_tol, s=cfg.s,
        mollifier=prep.mollifier,
    )
    for i, gap in enumerate(outcome.gaps, start=1):
        print(f"iteration {i}: gap = {gap:.6e}")
    # a stopped sweep leaves no trajectory, so no timeseries.dat
    if outcome.trajectory is not None:
        _emit_trajectory(prep, outcome.trajectory)
    if outcome.completed:
        print(f"converged in {len(outcome.gaps)} iterations")
    return outcome


_RUNS = {"nonlinear": _run_nonlinear, "linearized": _run_linearized, "picard": _run_picard}


def command_run(cfg: RunConfig) -> int:
    prep = prepare_run(cfg)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output_dir!r}: {exc}") from exc
    # every mode writes timeseries.dat last, and a nonlinear run may write
    # over any snapshot: refuse an unwritable one before the march, a link
    # into a missing directory included (os.path.exists is false for it)
    snaps = glob.glob("snap_*.dat", root_dir=cfg.output_dir) if cfg.snapshot_every > 0.0 else []
    for path in [timeseries_path(cfg.output_dir)] + [
        os.path.join(cfg.output_dir, name) for name in sorted(snaps)
    ]:
        if (
            os.path.isdir(path)
            or (os.path.exists(path) and not os.access(path, os.W_OK))
            or not os.path.isdir(os.path.dirname(os.path.realpath(path)))
        ):
            raise ConfigError(f"cannot write output {path!r}: it is a directory or not writable")
    outcome = _RUNS[cfg.mode](prep)
    if not outcome.completed:
        print(f"{outcome.status}: {outcome.reason}", file=sys.stderr)
    return 0 if outcome.completed else 1


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
    p_verify.add_argument("--seed", type=int, default=1234, help="RNG seed (default 1234)")

    sub.add_parser("scenarios", help="list the named scenarios")

    p_dump = sub.add_parser("dump-config", help="print the default configuration")
    p_dump.add_argument("--config", default=None, help="start from this config instead")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return command_run(load_config(args.config))
        if args.command == "verify":
            if args.seed < 0:
                raise ConfigError(f"seed must be non-negative, got {args.seed}")
            return verify_suite(args.seed)
        if args.command == "scenarios":
            width = max(len(name) for name in SCENARIOS)
            for name in sorted(SCENARIOS):
                print(f"{name:<{width}}  {SCENARIOS[name]}")
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
