"""End-to-end tests for the command-line front end."""

import math
import os
import re
import warnings

import numpy as np
import pytest

import gn1d.linearized
from gn1d.cli import (
    ConfigError,
    RunConfig,
    dump_config,
    emit_snapshot,
    emit_timeseries,
    load_bathymetry,
    load_config,
    main,
    parse_config,
    prepare_run,
    snapshot_path,
    verify_suite,
)
from gn1d.core import Bathymetry, Grid, Parameters, State, compute_depth
from gn1d.diagnostics import DiagnosticRecord


def test_dump_config_round_trips_defaults():
    text = dump_config()
    assert parse_config(text) == RunConfig()


def test_dump_config_round_trips_modified_values():
    cfg = RunConfig(
        scenario="hump",
        n=96,
        length=2.0 * math.pi,
        epsilon=1.0 / 3.0,
        amplitude=0.123456789012345678,
        snapshot_every=0.7,
        verify_break_depth=True,
    )
    # repr floats must survive the text round trip bit for bit
    assert parse_config(dump_config(cfg)) == cfg


def test_parse_config_skips_comments_and_blanks():
    cfg = parse_config("# a comment\n\nn = 64  # inline comment\n\nmode = picard\n")
    assert cfg.n == 64
    assert cfg.mode == "picard"


def test_parse_config_reads_bool_words():
    assert parse_config("verify_break_depth = yes").verify_break_depth is True
    assert parse_config("verify_break_depth = False").verify_break_depth is False
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("verify_break_depth = maybe")


def test_parse_config_reports_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown key 'dx'"):
        parse_config("n = 64\nlength = 10.0\ndx = 0.1\n")


def test_parse_config_reports_bad_value_with_line_number():
    with pytest.raises(ConfigError, match="line 2: cannot parse 'sixty'"):
        parse_config("n = 64\nlength = sixty\n")


def test_parse_config_rejects_lines_without_assignment():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("n 64\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.cfg"))


def _write_samples(path, xs, bs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x b\n")
        for x, b in zip(xs, bs):
            fh.write(f"{x:.17g} {b:.17g}\n")


def test_load_bathymetry_resamples_low_modes_exactly(tmp_path):
    length = 40.0
    grid = Grid(64, length)
    profile = lambda x: 0.2 * np.cos(2.0 * np.pi * x / length) + 0.05 * np.sin(
        3.0 * 2.0 * np.pi * x / length + 0.4
    )
    m = 16
    xs = np.arange(m) * length / m
    path = tmp_path / "bath.dat"
    _write_samples(path, xs, profile(xs))
    bath = load_bathymetry(str(path), grid)
    assert np.allclose(bath.b, profile(grid.nodes()), rtol=0.0, atol=1e-12)


def test_load_bathymetry_handles_offset_sample_origin(tmp_path):
    # samples need not start at x = 0; the phase shift must be undone
    length = 40.0
    grid = Grid(64, length)
    profile = lambda x: 0.1 * np.cos(2.0 * 2.0 * np.pi * x / length - 0.7)
    m = 20
    xs = 3.21 + np.arange(m) * length / m
    path = tmp_path / "bath.dat"
    _write_samples(path, xs, profile(xs))
    bath = load_bathymetry(str(path), grid)
    assert np.allclose(bath.b, profile(grid.nodes()), rtol=0.0, atol=1e-12)


def test_load_bathymetry_upsampling_splits_the_nyquist_mode(tmp_path):
    # 8 samples of cos(4x) alternate in sign; their interpolant is cos(4x)
    grid = Grid(16, 2.0 * np.pi)
    profile = lambda x: 0.1 * np.cos(4.0 * x) + 0.05 * np.sin(x + 0.2)
    xs = np.arange(8) * 2.0 * np.pi / 8
    path = tmp_path / "bath.dat"
    _write_samples(path, xs, profile(xs))
    bath = load_bathymetry(str(path), grid)
    assert np.allclose(bath.b, profile(grid.nodes()), rtol=0.0, atol=1e-12)


def test_load_bathymetry_downsampling_keeps_the_target_nyquist_mode(tmp_path):
    # cos(4x) is the Nyquist mode of an 8-node grid, where both of its
    # exponentials land on one coefficient
    grid = Grid(8, 2.0 * np.pi)
    profile = lambda x: 0.1 * np.cos(4.0 * x) + 0.05 * np.sin(x + 0.2)
    xs = np.arange(16) * 2.0 * np.pi / 16
    path = tmp_path / "bath.dat"
    _write_samples(path, xs, profile(xs))
    bath = load_bathymetry(str(path), grid)
    assert np.allclose(bath.b, profile(grid.nodes()), rtol=0.0, atol=1e-12)


def test_load_bathymetry_offset_nyquist_mode_is_a_cosine_about_the_first_sample(tmp_path):
    # the samples of cos(4x) from x0 = 0.3 are cos(1.2) (-1)^k, whose
    # interpolant is cos(1.2) cos(4 (x - 0.3)) (Trefethen, Spectral
    # Methods in MATLAB, ch. 3)
    grid = Grid(16, 2.0 * np.pi)
    x0 = 0.3
    xs = x0 + np.arange(8) * 2.0 * np.pi / 8
    path = tmp_path / "bath.dat"
    _write_samples(path, xs, 0.1 * np.cos(4.0 * xs) + 0.05 * np.sin(xs + 0.2))
    bath = load_bathymetry(str(path), grid)
    x = grid.nodes()
    want = 0.1 * np.cos(4.0 * x0) * np.cos(4.0 * (x - x0)) + 0.05 * np.sin(x + 0.2)
    assert np.allclose(bath.b, want, rtol=0.0, atol=1e-12)


def test_load_bathymetry_same_resolution_round_trip(tmp_path):
    grid = Grid(32, 10.0)
    rng = np.random.default_rng(5)
    bs = 0.1 * rng.standard_normal(grid.n)
    path = tmp_path / "bath.dat"
    _write_samples(path, grid.nodes(), bs)
    bath = load_bathymetry(str(path), grid)
    assert np.allclose(bath.b, bs, rtol=0.0, atol=1e-12)


def test_load_bathymetry_rejects_bad_files(tmp_path):
    grid = Grid(32, 10.0)
    path = tmp_path / "bath.dat"

    _write_samples(path, np.arange(4) * 2.5, np.zeros(4))
    with pytest.raises(ConfigError, match="at least 8 samples"):
        load_bathymetry(str(path), grid)

    xs = np.arange(16) * 10.0 / 16
    jittered = xs.copy()
    jittered[7] += 0.05
    _write_samples(path, jittered, np.zeros(16))
    with pytest.raises(ConfigError, match="uniformly spaced"):
        load_bathymetry(str(path), grid)

    backwards = xs[::-1]
    _write_samples(path, backwards, np.zeros(16))
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_bathymetry(str(path), grid)

    _write_samples(path, np.arange(16) * 11.0 / 16, np.zeros(16))
    with pytest.raises(ConfigError, match="domain length"):
        load_bathymetry(str(path), grid)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0.0 0.0 0.0\n")
    with pytest.raises(ConfigError, match="two columns"):
        load_bathymetry(str(path), grid)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0.0 zero\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        load_bathymetry(str(path), grid)

    bs = np.zeros(16)
    bs[3] = np.nan
    _write_samples(path, xs, bs)
    with pytest.raises(ConfigError, match="non-finite"):
        load_bathymetry(str(path), grid)


def test_emit_timeseries_round_trips_floats(tmp_path):
    records = [
        DiagnosticRecord(t=0.0, energy=1.0 / 3.0, mass=-2.0 / 7.0, min_h=0.9, xs=1.1, es=1.2),
        DiagnosticRecord(t=0.1, energy=math.pi, mass=math.e, min_h=0.8, xs=2.2, es=2.4),
    ]
    path = tmp_path / "ts.dat"
    emit_timeseries(records, str(path))
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "# t energy mass min_h xs_norm es_norm"
    data = np.loadtxt(path)
    assert data.shape == (2, 6)
    for i, r in enumerate(records):
        assert data[i].tolist() == [r.t, r.energy, r.mass, r.min_h, r.xs, r.es]


def test_emit_snapshot_columns(tmp_path):
    grid = Grid(16, 4.0)
    params = Parameters(0.5, 0.5, h0=0.2)
    rng = np.random.default_rng(3)
    state = State(0.1 * rng.standard_normal(grid.n), 0.1 * rng.standard_normal(grid.n))
    bath = Bathymetry.from_profile(0.05 * np.cos(2.0 * np.pi * grid.nodes() / 4.0), grid)
    path = tmp_path / "snap.dat"
    emit_snapshot(state, bath, params, grid, str(path))
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "# x zeta u b h"
    data = np.loadtxt(path)
    assert data.shape == (grid.n, 5)
    h = compute_depth(state, bath, params)
    assert np.array_equal(data[:, 0], grid.nodes())
    assert np.array_equal(data[:, 1], state.zeta)
    assert np.array_equal(data[:, 2], state.u)
    assert np.array_equal(data[:, 3], bath.b)
    assert np.array_equal(data[:, 4], h)


def test_emit_snapshot_writes_the_bytes_of_the_per_node_formatter(tmp_path):
    grid = Grid(8, 4.0)
    params = Parameters(0.5, 0.5, h0=0.2)
    zeta = np.array([-0.0, 1e300, 5e-324, 0.1, -1e-300, np.inf, np.nan, 1.0 / 3.0])
    u = np.array([5e-324, -0.0, 1e300, -np.inf, 2.0 / 3.0, 0.0, 1e-7, -5e-324])
    b = np.array([0.0, -0.0, 5e-324, 1e300, 0.25, -1e-17, 0.0, 1e-300])
    state = State(zeta, u)
    bath = Bathymetry(b, np.zeros(grid.n), np.zeros(grid.n))
    path = tmp_path / "snap.dat"
    emit_snapshot(state, bath, params, grid, str(path))
    x = grid.nodes()
    h = compute_depth(state, bath, params)
    want = "# x zeta u b h\n" + "".join(
        f"{x[i]:.17g} {zeta[i]:.17g} {u[i]:.17g} {b[i]:.17g} {h[i]:.17g}\n"
        for i in range(grid.n)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_snapshot_path_padding(tmp_path):
    assert snapshot_path(str(tmp_path), 42) == os.path.join(str(tmp_path), "snap_000042.dat")


def test_prepare_run_defaults_derive_the_depth_floor():
    prep = prepare_run(RunConfig())
    # solitary wave rides above a flat bottom, so the minimum depth is 1
    assert prep.params.h0 == pytest.approx(0.5, rel=1e-12)
    assert prep.control.dt_max == math.inf
    assert prep.grid.n == 256


def test_prepare_run_keeps_explicit_floor():
    prep = prepare_run(RunConfig(h0=0.3))
    assert prep.params.h0 == 0.3


def test_prepare_run_centers_profiles_by_default():
    prep = prepare_run(RunConfig(n=512))
    peak = prep.grid.nodes()[np.argmax(prep.state.zeta)]
    assert peak == pytest.approx(30.0, abs=prep.grid.dx)


def test_prepare_run_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="unknown mode"):
        prepare_run(RunConfig(mode="implicit"))
    with pytest.raises(ConfigError, match="unknown scenario"):
        prepare_run(RunConfig(scenario="dam_break"))
    with pytest.raises(ConfigError):
        prepare_run(RunConfig(n=65))
    with pytest.raises(ConfigError):
        prepare_run(RunConfig(t_end=-1.0))
    with pytest.raises(ConfigError):
        prepare_run(RunConfig(epsilon=2.0))


def test_prepare_run_rejects_floor_violations():
    # the bar steals 0.15 of depth, so a floor of 0.9 is unreachable
    cfg = RunConfig(scenario="rest_over_bar", h0=0.9, bar_height=0.3, epsilon=0.5)
    with pytest.raises(ConfigError, match="violates the depth floor"):
        prepare_run(cfg)


def _write_config(path, **overrides):
    cfg = RunConfig(**overrides)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))
    return cfg


def test_main_run_completes_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path,
        scenario="hump",
        n=64,
        length=2.0 * math.pi,
        epsilon=0.2,
        amplitude=0.2,
        width=0.5,
        t_end=0.1,
        snapshot_every=0.04,
        output_dir=str(out),
    )
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "completed" in captured.out
    data = np.loadtxt(out / "timeseries.dat")
    assert data.shape[1] == 6
    assert data[0, 0] == 0.0
    assert data[-1, 0] == pytest.approx(0.1, rel=1e-12)
    snaps = sorted(p.name for p in out.glob("snap_*.dat"))
    assert "snap_000000.dat" in snaps
    assert len(snaps) >= 3


def test_main_run_reports_blowup_with_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path,
        scenario="hump",
        n=64,
        length=2.0 * math.pi,
        epsilon=0.2,
        amplitude=0.2,
        width=0.5,
        t_end=1.0,
        blowup_factor=1e-12,
        output_dir=str(tmp_path / "out"),
    )
    code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    assert "blowup_norm" in capsys.readouterr().out


def test_main_run_linearized_mode(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path,
        scenario="hump",
        mode="linearized",
        n=64,
        length=2.0 * math.pi,
        epsilon=0.2,
        amplitude=0.2,
        width=0.5,
        t_end=0.05,
        dt_max=0.01,
        output_dir=str(out),
    )
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    assert "linearized solve" in capsys.readouterr().out
    assert (out / "timeseries.dat").exists()


def test_main_run_picard_mode(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path,
        scenario="hump",
        mode="picard",
        n=64,
        length=2.0 * math.pi,
        epsilon=0.2,
        amplitude=0.2,
        width=0.5,
        t_end=0.05,
        dt_max=0.01,
        picard_tol=1e-9,
        output_dir=str(out),
    )
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "iteration 1: gap" in captured.out
    assert "converged in" in captured.out
    assert (out / "timeseries.dat").exists()


@pytest.mark.parametrize("mode", ("linearized", "picard"))
def test_main_run_reports_a_non_finite_operator_with_exit_one(tmp_path, capsys, monkeypatch, mode):
    # an infinite depth passes the depth floor; the finite check on the
    # band storage inside the linear march must end the run with exit 1
    real_assemble = gn1d.linearized.assemble_T

    def infinite_depth_at_node_3(h, *args):
        h = h.copy()
        h[3] = np.inf
        return real_assemble(h, *args)

    monkeypatch.setattr(gn1d.linearized, "assemble_T", infinite_depth_at_node_3)
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path,
        scenario="hump",
        mode=mode,
        n=64,
        length=2.0 * math.pi,
        epsilon=0.2,
        amplitude=0.2,
        width=0.5,
        t_end=0.1,
        output_dir=str(tmp_path / "out"),
    )
    with np.errstate(invalid="ignore"):
        code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    assert "terminated: non-finite value in the band storage of T" in capsys.readouterr().err


def test_main_run_picard_on_an_overflowing_state_exits_one(tmp_path, capsys):
    # the CFL step of this state is absurdly small; the march must still
    # end at its first stage with the labeled error, not a failed allocation
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, mode="picard", amplitude=1e200, h0=0.5, output_dir=str(tmp_path / "out")
    )
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    assert "terminated: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, stream, message",
    [
        ("nonlinear", "out", "blowup_norm: t = 0, steps = 0"),
        ("linearized", "err", "reference run terminated early: blowup_norm"),
        ("picard", "err", "terminated: non-finite value in the band storage of T"),
    ],
    ids=["nonlinear", "linearized", "picard"],
)
def test_main_run_on_an_overflowing_state_prints_only_the_labeled_outcome(
    tmp_path, capsys, mode, stream, message
):
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, mode=mode, n=64, amplitude=1e200, h0=0.5, output_dir=str(tmp_path / "out")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    assert message in getattr(capsys.readouterr(), stream)


def test_main_config_error_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("n = sixty\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"n": 6},
        {"blowup_factor": math.nan},
        {"s": math.nan},
        {"snapshot_every": math.nan},
        {"h0": math.nan},
        {"dt_max": math.nan},
        {"mollifier_delta": math.nan},
        {"picard_tol": math.nan},
        {"picard_max_iters": 0},
        {"x0": math.nan},
        {"amplitude": math.nan},
        {"bar_height": math.nan},
    ],
    ids=lambda o: next(iter(o)),
)
def test_main_rejects_bad_config_values_with_exit_two(tmp_path, capsys, override):
    cfg_path = tmp_path / "run.cfg"
    base = dict(scenario="hump", n=64, length=2.0 * math.pi, epsilon=0.2, amplitude=0.2,
                width=0.5, t_end=0.05, output_dir=str(tmp_path / "out"))
    _write_config(cfg_path, **{**base, **override})
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert next(iter(override)) in err


def test_main_scenarios_lists_the_registry(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("solitary", "hump", "hump_over_bar", "rest_over_bar"):
        assert name in out


def test_main_dump_config_round_trips(capsys):
    assert main(["dump-config"]) == 0
    text = capsys.readouterr().out
    assert parse_config(text) == RunConfig()


VERIFY_CHECKS = [
    "operator symmetry (max abs)",
    "coercivity margin (min ratio/bound)",
    "solve residual (relative)",
    "solve round-trip (relative)",
    "energy identity (relative)",
    "source decomposition (relative)",
    "formulation equivalence (relative)",
    "cutoff commutation (relative)",
    "cutoff self-adjointness (relative)",
    "inverse bound spread (first)",
    "inverse bound spread (derivative)",
    "norm equivalence spread (upper)",
    "norm equivalence spread (lower)",
    "energy drift (relative, t=2)",
    "mass drift (absolute, t=2)",
]


def test_verify_suite_passes_on_defaults(capsys):
    # the benchmark parses this table: keep the names, their order, the
    # summary line and the "name  measured value" layout
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  measured ")[0].rstrip() for line in lines[:-1]] == VERIFY_CHECKS
    assert lines[-1] == "15/15 checks passed"
    assert any(re.match(r"^energy drift \(relative, t=2\)\s+measured \S+", x) for x in lines)
    assert not any(line.endswith("FAIL") for line in lines)


def test_verify_suite_detects_broken_depth(capsys):
    # negative control: sabotaged states must be caught, not papered over
    assert verify_suite(RunConfig(verify_break_depth=True)) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "0/1 checks passed" in out
