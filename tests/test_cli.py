"""End-to-end tests for the command-line front end."""

import math
import os
import re
import typing
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

import gn1d.checks
import gn1d.cli
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
    )
    # repr floats must survive the text round trip bit for bit
    assert parse_config(dump_config(cfg)) == cfg


@pytest.mark.parametrize("value", ["out#1", " padded ", "a\nb"])
def test_dump_config_refuses_a_string_that_would_not_parse_back(value):
    # parse_config would cut the comment, strip the padding, or split the line
    with pytest.raises(ConfigError, match="output_dir"):
        dump_config(RunConfig(output_dir=value))


def test_every_run_config_default_has_its_annotated_type():
    # parse_config reads the type of each key from its default
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        assert type(f.default) is hints[f.name], f.name


def test_parse_config_skips_comments_and_blanks():
    cfg = parse_config("# a comment\n\nn = 64  # inline comment\n\nmode = picard\n")
    assert cfg.n == 64
    assert cfg.mode == "picard"


def test_parse_config_reports_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown key 'dx'"):
        parse_config("n = 64\nlength = 10.0\ndx = 0.1\n")


def test_parse_config_reports_bad_value_with_line_number():
    with pytest.raises(ConfigError, match="line 2: cannot parse 'sixty'"):
        parse_config("n = 64\nlength = sixty\n")


def test_parse_config_rejects_lines_without_assignment():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("n 64\n")


def test_parse_config_refuses_a_repeated_key(tmp_path, capsys):
    # a key given twice is a config error, not a silent choice of the last value
    with pytest.raises(ConfigError, match="^line 2: duplicate key 'n'$"):
        parse_config("n = 64\nn = 128\n")
    with pytest.raises(ConfigError, match="^line 4: duplicate key 'mode'$"):
        parse_config("mode = picard\n# the same key, the same value\n\n mode=picard  # again\n")
    # the defaults, then t_end once more: gn1d run exits 2 before any march
    text = dump_config() + "t_end = 0.1\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lineno = len(text.splitlines())
    assert captured.err == f"config error: line {lineno}: duplicate key 't_end'\n"


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


@pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"], ids=["form_feed", "nel", "ls"])
def test_load_bathymetry_ends_a_line_where_the_config_does(tmp_path, sep):
    # both input files split lines by one rule: a break str.splitlines
    # knows ends a bathymetry row, as it ends a config line
    grid = Grid(32, 10.0)
    xs = np.arange(16) * 10.0 / 16
    path = tmp_path / "bath.dat"
    _write_samples(path, xs, 0.1 * np.cos(2.0 * np.pi * xs / 10.0))
    want = load_bathymetry(str(path), grid)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[8] = lines[8] + sep + lines.pop(9)
    path.write_text("\n".join(lines), encoding="utf-8")
    got = load_bathymetry(str(path), grid)
    assert all(np.array_equal(a, b) for a, b in zip(astuple(got), astuple(want)))


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


def test_emit_timeseries_writes_the_bytes_of_the_per_record_formatter(tmp_path):
    # signed zeros, subnormals, infinities and nan, as emit_snapshot's test has them
    records = [
        DiagnosticRecord(t=-0.0, energy=np.nan, mass=5e-324, min_h=-np.inf, xs=1e300, es=0.0),
        DiagnosticRecord(t=0.1, energy=np.inf, mass=-0.0, min_h=-5e-324, xs=-1e-300, es=np.nan),
        DiagnosticRecord(t=1.0 / 3.0, energy=-np.inf, mass=-2.0 / 7.0, min_h=0.9, xs=1e-7, es=2.0),
    ]
    path = tmp_path / "ts.dat"
    emit_timeseries(records, str(path))
    want = "# t energy mass min_h xs_norm es_norm\n" + "".join(
        f"{r.t:.17g} {r.energy:.17g} {r.mass:.17g} {r.min_h:.17g} {r.xs:.17g} {r.es:.17g}\n"
        for r in records
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_emit_snapshot_columns(tmp_path):
    grid = Grid(16, 4.0)
    params = Parameters(0.5, 0.5, h0=0.2)
    rng = np.random.default_rng(3)
    state = State(0.1 * rng.standard_normal((2, grid.n)))
    bath = Bathymetry.from_profile(0.05 * np.cos(2.0 * np.pi * grid.nodes() / 4.0), grid)
    path = tmp_path / "snap.dat"
    emit_snapshot(state, bath, params, grid, str(path))
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "# x zeta u b h"
    data = np.loadtxt(path)
    assert data.shape == (grid.n, 5)
    h = compute_depth(state.zeta, bath, params)
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
    state = State(np.array((zeta, u)))
    bath = Bathymetry(b, np.zeros(grid.n), np.zeros(grid.n))
    path = tmp_path / "snap.dat"
    emit_snapshot(state, bath, params, grid, str(path))
    x = grid.nodes()
    h = compute_depth(state.zeta, bath, params)
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


def test_prepare_run_rejects_floor_violations(monkeypatch):
    # the bar steals 0.15 of depth, so a floor of 0.9 is unreachable
    cfg = RunConfig(scenario="rest_over_bar", h0=0.9, bar_height=0.3, epsilon=0.5)
    with pytest.raises(ConfigError, match="violates the depth floor"):
        prepare_run(cfg)
    # a NaN depth fails the floor check too
    monkeypatch.setattr(gn1d.cli, "compute_depth", lambda zeta, *args: np.full_like(zeta, np.nan))
    with pytest.raises(ConfigError, match="violates the depth floor"):
        prepare_run(RunConfig(h0=0.25))


def test_prepare_run_names_a_configured_floor_out_of_range():
    with pytest.raises(ConfigError) as info:
        prepare_run(RunConfig(h0=1.5))
    assert str(info.value) == (
        "configured depth floor is not admissible: h0 must lie in (0, 1], got 1.5"
    )


def test_prepare_run_names_a_derived_floor_out_of_range():
    # a bar of height 2.5 at eps = 0.5 leaves a lake at rest of minimum
    # depth 1 - 0.5 * 2.5 = -0.25, so half of it derives a floor of -0.125
    with pytest.raises(ConfigError) as info:
        prepare_run(RunConfig(scenario="rest_over_bar", bar_height=2.5))
    assert str(info.value) == (
        "derived depth floor is not admissible: h0 must lie in (0, 1], got -0.125"
    )


def test_a_derived_floor_over_deep_water_is_capped_at_one(tmp_path, capsys):
    # a flat bottom at b = -3 deepens the water to at least 2.5, so half
    # the initial minimum depth would be 1.25, above the largest admissible
    # floor; the derived floor is 1 and the run goes ahead
    path = tmp_path / "bath.dat"
    _write_samples(path, np.arange(16) * 60.0 / 16, np.full(16, -3.0))
    cfg = RunConfig(bathymetry_file=str(path), t_end=0.2, output_dir=str(tmp_path / "out"))
    assert prepare_run(cfg).params.h0 == 1.0
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(cfg), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("completed: t = 0.2,")


@pytest.mark.parametrize("with_bathymetry_file", [False, True])
def test_a_bathymetry_file_takes_the_place_of_the_scenario_bar(
    tmp_path, capsys, with_bathymetry_file
):
    # a bar of width 0 is refused, unless a file replaces it: then it is never built
    path = tmp_path / "bath.dat"
    xs = np.arange(16) * 60.0 / 16
    _write_samples(path, xs, 0.1 * np.cos(2.0 * np.pi * xs / 60.0))
    cfg = RunConfig(
        scenario="rest_over_bar", bar_width=0.0, t_end=0.2, output_dir=str(tmp_path / "out"),
        bathymetry_file=str(path) if with_bathymetry_file else "",
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(cfg), encoding="utf-8")
    code = main(["run", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    if with_bathymetry_file:
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("completed: t = 0.2,")
    else:
        assert code == 2
        assert captured.err == "config error: bar width must be positive, got 0.0\n"


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


def test_main_run_prints_the_grid_index_where_an_over_tall_hump_loses_depth(tmp_path, capsys):
    # a hump twice the still depth sheds troughs that dip below a floor of
    # 0.95: inside an RK4 stage in nonlinear mode, and in a snapshot of the
    # first iterate in picard mode, before any gap is printed; the stop line
    # names the node, the depth, the time and, inside a stage, the stage
    for mode, stdout, sweep, stage in [
        ("nonlinear", "blowup_depth: t = ", "", r", RK stage [1-4]"),
        ("picard", "", "sweep 1: ", ""),
    ]:
        cfg_path = tmp_path / f"{mode}.cfg"
        _write_config(
            cfg_path, scenario="hump", mode=mode, n=64, length=20.0, epsilon=1.0, mu=0.5,
            amplitude=2.0, width=1.0, h0=0.95, t_end=5.0, output_dir=str(tmp_path / mode),
        )
        assert main(["run", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(stdout) and bool(captured.out) == bool(stdout)
        match = re.fullmatch(
            rf"blowup_depth: {sweep}depth condition violated: min depth (\S+) "
            rf"at grid index (\d+) \(t = ([^,)]+){stage}\)\n",
            captured.err,
        )
        assert match is not None, captured.err
        assert float(match.group(1)) < 0.95
        assert 0 <= int(match.group(2)) < 64
        assert 0.0 < float(match.group(3)) < 5.0


@pytest.mark.parametrize(
    "overrides, code, snapshot_steps",
    [
        pytest.param(dict(t_end=2.0, snapshot_every=0.7), 0, [0, 8, 16, 22], id="completed"),
        # the final state lands on a mark: one snapshot of it, not two
        pytest.param(dict(t_end=2.0, snapshot_every=1.0), 0, [0, 11, 22], id="end_on_a_mark"),
        # the depth is lost inside step 40: no snapshot of it, no final one
        pytest.param(
            dict(scenario="hump", n=64, length=20.0, epsilon=1.0, amplitude=2.0, width=1.0,
                 h0=0.95, t_end=5.0, snapshot_every=0.05),
            1, list(range(40)), id="depth_loss",
        ),
    ],
)
def test_main_run_writes_snapshots_at_the_cadence_marks(
    tmp_path, capsys, monkeypatch, overrides, code, snapshot_steps
):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, output_dir=str(out), **overrides)
    calls = []

    def recorded(state, bathymetry, params, grid, path):
        calls.append(os.path.basename(path))
        emit_snapshot(state, bathymetry, params, grid, path)

    monkeypatch.setattr(gn1d.cli, "emit_snapshot", recorded)
    assert main(["run", "--config", str(cfg_path)]) == code
    assert f"steps = {snapshot_steps[-1]}," in capsys.readouterr().out
    # each file written once, in step order
    assert calls == [f"snap_{step:06d}.dat" for step in snapshot_steps]
    assert sorted(p.name for p in out.glob("snap_*.dat")) == calls


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under_file"])
def test_main_run_reports_an_unusable_output_dir_as_a_config_error(tmp_path, capsys, under_file):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    output_dir = blocker / "out" if under_file else blocker
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, scenario="hump", n=64, t_end=0.05, output_dir=str(output_dir))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {str(output_dir)!r}")
    assert blocker.read_text(encoding="utf-8") == "a regular file\n"


@pytest.mark.parametrize("blocker", ["directory", "dangling_link"])
@pytest.mark.parametrize(
    "mode, name",
    [
        ("nonlinear", "timeseries.dat"),
        ("nonlinear", "snap_000000.dat"),
        ("linearized", "timeseries.dat"),
        ("picard", "timeseries.dat"),
    ],
)
def test_main_run_reports_an_unwritable_output_file_as_a_config_error(
    tmp_path, capsys, monkeypatch, mode, name, blocker
):
    out = tmp_path / "out"
    if blocker == "directory":
        (out / name).mkdir(parents=True)
    else:
        # os.path.exists is false for a link into a missing directory
        out.mkdir()
        (out / name).symlink_to(tmp_path / "missing" / name)
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump", mode=mode, n=64, epsilon=0.2, amplitude=0.2, t_end=0.02,
        dt_max=0.01, snapshot_every=0.01 if mode == "nonlinear" else 0.0, output_dir=str(out),
    )
    # timeseries.dat is written last, and a snapshot may be written at any
    # step, so every output path is checked before any march

    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    for march in ("run", "solve_linear", "picard_solve"):
        monkeypatch.setattr(gn1d.cli, march, no_march)
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {str(out / name)!r}")
    assert [p.name for p in out.glob("snap_*.dat") if p.is_file()] == []


@pytest.mark.parametrize(
    "mode, name",
    [
        ("nonlinear", "timeseries.dat"),
        ("nonlinear", "snap_000000.dat"),
        ("linearized", "timeseries.dat"),
        ("picard", "timeseries.dat"),
    ],
)
def test_main_run_reports_an_output_write_that_fails_in_the_run_as_a_config_error(
    tmp_path, capsys, monkeypatch, mode, name
):
    """A link into a missing directory that appears after the output
    pre-check, as the march starts, makes only the write itself fail: the
    run still exits 2 with one labeled line and no traceback."""
    out = tmp_path / "out"
    out.mkdir()
    march_name = "picard_solve" if mode == "picard" else "run"
    march = getattr(gn1d.cli, march_name)

    def link_then_march(*args, **kwargs):
        (out / name).symlink_to(tmp_path / "missing" / name)
        return march(*args, **kwargs)

    monkeypatch.setattr(gn1d.cli, march_name, link_then_march)
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump", mode=mode, n=64, epsilon=0.2, amplitude=0.2, t_end=0.02,
        dt_max=0.01, snapshot_every=0.01 if mode == "nonlinear" else 0.0, output_dir=str(out),
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {str(out / name)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("blocked", ["directory", "read_only"])
def test_main_run_refuses_a_later_snapshot_path_before_the_march(
    tmp_path, capsys, monkeypatch, blocked
):
    # snap_000015.dat would be written at step 15 of this run, after three
    # earlier snapshots; an unusable one is refused before any is written
    out = tmp_path / "out"
    target = out / "snap_000015.dat"
    if blocked == "directory":
        target.mkdir(parents=True)
    else:
        out.mkdir()
        target.write_text("an earlier run\n", encoding="utf-8")
        # a superuser may write any file, so os.access answers as for anyone else
        real_access = os.access
        monkeypatch.setattr(
            os, "access",
            lambda path, mode, **kw: path != str(target) and real_access(path, mode, **kw),
        )
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump", n=64, t_end=0.2, snapshot_every=0.05, dt_max=0.01,
        output_dir=str(out),
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot write output {str(target)!r}: it is a directory or not writable"
    )
    assert sorted(p.name for p in out.iterdir()) == ["snap_000015.dat"]
    assert blocked == "directory" or target.read_text(encoding="utf-8") == "an earlier run\n"


def test_main_run_refuses_a_read_only_timeseries_file_and_leaves_it_as_it_was(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "out"
    out.mkdir()
    target = out / "timeseries.dat"
    target.write_text("an earlier run\n", encoding="utf-8")
    target.chmod(0o444)
    # a superuser may write any file, so os.access answers as for anyone else
    real_access = os.access
    monkeypatch.setattr(
        os, "access",
        lambda path, mode, **kw: path != str(target) and real_access(path, mode, **kw),
    )
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, scenario="hump", n=64, t_end=0.02, output_dir=str(out))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot write output {str(target)!r}"
    )
    assert target.read_text(encoding="utf-8") == "an earlier run\n"


def test_an_early_stop_leaves_an_existing_timeseries_file_as_it_was(tmp_path, capsys):
    # the output check before the march opens nothing, so a picard run that
    # stops in a sweep writes no timeseries.dat and truncates none
    out = tmp_path / "out"
    out.mkdir()
    (out / "timeseries.dat").write_text("an earlier run\n", encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump", mode="picard", n=64, length=20.0, epsilon=1.0,
        amplitude=2.0, width=1.0, h0=0.95, t_end=5.0, output_dir=str(out),
    )
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert re.fullmatch(
        r"blowup_depth: sweep 1: depth condition violated: min depth \S+ at grid index \d+ "
        r"\(t = \S+\)\n",
        capsys.readouterr().err,
    )
    assert (out / "timeseries.dat").read_text(encoding="utf-8") == "an earlier run\n"


@pytest.mark.parametrize("with_bathymetry_file", [False, True])
def test_main_run_reports_a_grid_too_large_to_allocate_as_a_config_error(
    tmp_path, capsys, with_bathymetry_file
):
    # numpy refuses an array of 1e13 doubles (73 TiB) without touching memory
    bath_path = tmp_path / "bath.dat"
    xs = np.arange(16) * 60.0 / 16
    _write_samples(bath_path, xs, 0.1 * np.cos(2.0 * np.pi * xs / 60.0))
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, n=10_000_000_000_000, output_dir=str(tmp_path / "out"),
        bathymetry_file=str(bath_path) if with_bathymetry_file else "",
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "(10000000000000,)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["config", "bathymetry"])
def test_main_reports_an_input_file_that_is_not_utf8_as_a_config_error(tmp_path, capsys, which):
    bath_path = tmp_path / "bath.dat"
    xs = np.arange(16) * 2.0 * math.pi / 16
    _write_samples(bath_path, xs, 0.1 * np.cos(xs))
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump", bathymetry_file=str(bath_path), n=64, length=2.0 * math.pi,
        epsilon=0.2, amplitude=0.2, output_dir=str(tmp_path / "out"),
    )
    path = cfg_path if which == "config" else bath_path
    path.write_bytes(path.read_bytes() + (b"# caf\xe9\n" if which == "config" else b"\xff 0\n"))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {which} {str(path)!r}")
    assert "can't decode byte" in err
    assert not (tmp_path / "out").exists()


def test_main_run_picard_rejects_an_infinite_cutoff_scale_as_a_config_error(tmp_path, capsys):
    # an infinite scale would turn the cutoff symbol into NaN and end the
    # march at its first solve; it is refused before any work
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, mode="picard", n=64, t_end=0.05, mollifier_delta=math.inf, output_dir=str(out)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: mollifier_delta must be finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_main_run_picard_that_does_not_converge_exits_one(tmp_path, capsys):
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
        picard_max_iters=1,
        output_dir=str(out),
    )
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "not_converged: not converged after 1 iterations\n"
    assert (out / "timeseries.dat").exists()


def test_main_run_snapshots_the_bottom_read_from_the_bathymetry_file(tmp_path):
    out = tmp_path / "out"
    length = 2.0 * math.pi
    xs = np.arange(16) * length / 16
    bath_path = tmp_path / "bath.dat"
    _write_samples(bath_path, xs, 0.1 * np.cos(xs) + 0.05 * np.sin(3.0 * xs))
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path,
        scenario="hump",
        bathymetry_file=str(bath_path),
        n=64,
        length=length,
        epsilon=0.2,
        amplitude=0.2,
        width=0.5,
        t_end=0.02,
        snapshot_every=0.01,
        output_dir=str(out),
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    snap = np.loadtxt(out / "snap_000000.dat")
    want = load_bathymetry(str(bath_path), Grid(64, length)).b
    assert np.any(want != 0.0)
    assert np.array_equal(snap[:, 3], want)


@pytest.mark.parametrize("mode", ("linearized", "picard"))
def test_main_run_reports_a_non_finite_operator_with_exit_one(tmp_path, capsys, monkeypatch, mode):
    # an infinite depth passes the depth floor; the finite check on the
    # band storage inside the linear march must end the run with exit 1.  The
    # march freezes its coefficient states through frozen_states, whose
    # surfaces are made infinite at node 3 (the linearized mode's nonlinear
    # reference run assembles through the same gn_rhs binding, so that one
    # is left alone)
    real_frozen_states = gn1d.linearized.frozen_states

    def infinite_depth_at_node_3(coeff, *args):
        coeff = coeff.copy()
        coeff[:, 0, 3] = np.inf
        return real_frozen_states(coeff, *args)

    monkeypatch.setattr(gn1d.linearized, "frozen_states", infinite_depth_at_node_3)
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
    code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    sweep = "sweep 1: " if mode == "picard" else ""
    # T's stencil spreads node 3 over nodes 1 to 5; the first in factor order is named
    assert capsys.readouterr().err == (
        f"blowup_norm: {sweep}non-finite value in the band storage of T at grid index 1 "
        "(t = 0, RK stage 1)\n"
    )


def test_main_run_picard_on_an_overflowing_state_exits_one(tmp_path, capsys):
    # the CFL step of this state is absurdly small; the march must still
    # end at its first stage with the labeled error, not a failed allocation
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, mode="picard", amplitude=1e200, h0=0.5, output_dir=str(tmp_path / "out")
    )
    code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "blowup_norm: sweep 1: non-finite value in the band storage of T at grid index 0 "
        "(t = 0, RK stage 1)\n"
    )


@pytest.mark.parametrize(
    "mode, out, where",
    [
        ("nonlinear", "blowup_norm: t = 0, steps = 0", ""),
        ("linearized", "", "reference run: "),
        ("picard", "", "sweep 1: "),
    ],
    ids=["nonlinear", "linearized", "picard"],
)
def test_main_run_on_an_overflowing_state_prints_only_the_labeled_outcome(
    tmp_path, capsys, mode, out, where
):
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, mode=mode, n=64, amplitude=1e200, h0=0.5, output_dir=str(tmp_path / "out")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", str(cfg_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(out)
    assert captured.err == (
        f"blowup_norm: {where}non-finite value in the band storage of T at grid index 0 "
        "(t = 0, RK stage 1)\n"
    )


def test_main_run_with_a_cutoff_scale_of_1e308_completes_without_a_warning(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, mode="picard", n=64, t_end=0.2, mollifier_delta=1e308,
        output_dir=str(tmp_path / "out"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", str(cfg_path)])
    assert (code, capsys.readouterr().err) == (0, "")


def test_main_run_refuses_a_length_whose_wavenumbers_overflow(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    # marched, such a grid gives a first record of energy NaN and a
    # non-finite operator in the first stage
    _write_config(
        cfg_path, scenario="hump", n=16, length=1e-308, t_end=0.1,
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "top wavenumber" in capsys.readouterr().err


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
        pytest.param({"mollifier_delta": math.inf}, id="mollifier_delta_inf"),
        pytest.param({"t_end": math.inf}, id="t_end_inf"),
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


@pytest.mark.parametrize(
    "override, code",
    [
        pytest.param({"scenario": "hump_over_bar", "bar_width": 1e-200}, 2, id="bar_width_1e-200"),
        pytest.param(
            {"scenario": "rest_over_bar", "bar_width": 1e-100, "h0": 0.1}, 2, id="bar_width_1e-100"
        ),
        pytest.param({"scenario": "hump", "width": 1e-200}, 2, id="width_1e-200"),
        pytest.param({"scenario": "hump", "width": 1e-160}, 0, id="width_1e-160"),
        pytest.param({"scenario": "hump", "width": 1e200}, 0, id="width_1e200"),
        pytest.param({"scenario": "hump_over_bar", "bar_width": 1e200}, 0, id="bar_width_1e200"),
    ],
)
def test_main_run_on_an_extreme_scenario_width(tmp_path, capsys, override, code):
    # a width whose squares underflow or overflow must give a finite profile
    # or a config error naming the width, never a traceback or a warning
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, t_end=0.05, output_dir=str(tmp_path / "out"), **override)
    assert main(["run", "--config", str(cfg_path)]) == code
    err = capsys.readouterr().err
    if code == 2:
        key = next(k for k in override if k.endswith("width"))
        assert "config error:" in err
        assert f"width {override[key]:g}" in err


_XS = np.arange(16) * 60.0 / 16  # one period of the default domain
_SIGNS = (-1.0) ** np.arange(16)


@pytest.mark.parametrize(
    "positions, values",
    [
        pytest.param(_XS, np.full(16, 1e308), id="1e308"),
        pytest.param(_XS, 1e308 * _SIGNS, id="alternating_1e308"),
        pytest.param(_XS, np.where(np.arange(16) == 3, 1.7e308, 0.0), id="one_1.7e308"),
        pytest.param(-1.7e308 * _SIGNS, np.zeros(16), id="positions_1.7e308"),
    ],
)
def test_main_run_refuses_a_bathymetry_file_that_overflows_at_the_file(
    tmp_path, capsys, positions, values
):
    # samples near the float limit overflow in the spacing or the resampling;
    # the run is refused naming the file, with no numpy warning on the way
    bath_path = tmp_path / "bath.dat"
    _write_samples(bath_path, positions, values)
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump", bathymetry_file=str(bath_path), t_end=0.05,
        output_dir=str(tmp_path / "out"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {bath_path}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, profile", [("width", "hump"), ("bar_width", "bar")])
def test_main_run_names_the_profile_whose_width_is_not_positive(tmp_path, capsys, key, profile):
    cfg_path = tmp_path / "run.cfg"
    _write_config(
        cfg_path, scenario="hump_over_bar", t_end=0.05, output_dir=str(tmp_path / "out"),
        **{key: 0.0},
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {profile} width must be positive, got 0.0\n"


@pytest.mark.parametrize("mode", ("nonlinear", "picard"))
@pytest.mark.parametrize("key", ("cfl", "dt_max"))
def test_prepare_run_rejects_a_step_too_small_to_finish(key, mode):
    # run() ends within 1e-12 t_end of t_end; a shorter first step would
    # march for more than 1e12 steps, so it is a config error before any work
    with pytest.raises(ConfigError, match=f"{key} = 1e-300 .* more than 1e12 steps"):
        prepare_run(RunConfig(mode=mode, t_end=0.05, **{key: 1e-300}))


@pytest.mark.parametrize(
    "mode, t_end, code, steps",
    [
        ("linearized", 5e-324, 2, None),
        ("linearized", 1e-323, 0, "(1 steps)"),
        ("nonlinear", 5e-324, 0, "steps = 0"),
        ("picard", 5e-324, 0, None),
    ],
)
def test_a_t_end_within_the_end_tolerance_of_the_start(tmp_path, capsys, mode, t_end, code, steps):
    # the reference run() of linearized mode takes no step when t_end lies
    # within its end tolerance of 0, and one state is no trajectory: that is
    # refused before any work, while the other modes finish at once
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, mode=mode, n=16, t_end=t_end, output_dir=str(out))
    assert main(["run", "--config", str(cfg_path)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err == (
            "config error: t_end = 4.94066e-324 lies within the end tolerance 4.94e-324 "
            "of the start: the linearized reference run would take no step\n"
        )
        assert not out.exists()
    else:
        assert captured.err == "" and (out / "timeseries.dat").exists()
        assert steps is None or steps in captured.out


@pytest.mark.parametrize("mode", ("linearized", "picard"))
def test_main_rejects_snapshots_outside_nonlinear_mode(tmp_path, capsys, mode):
    # only a nonlinear run writes snap_*.dat; a linear mode must not drop the
    # key without a word, and must stop before it does any work
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, mode=mode, t_end=0.5, snapshot_every=0.2, output_dir=str(out))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "snapshot_every" in err
    assert not out.exists()


def test_main_rejects_a_cutoff_in_nonlinear_mode(tmp_path, capsys):
    # the nonlinear march applies no cutoff; the key must not be dropped
    # without a word, and the run must stop before it does any work
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, t_end=0.5, mollifier_delta=0.5, output_dir=str(out))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 1
    assert "mollifier_delta" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        {"length": math.inf},
        {"amplitude": 1.7e308},
        pytest.param({"amplitude": 1e300}, id="amplitude_velocity"),
        pytest.param({"s": 200.0}, id="s_inf_norm"),
        pytest.param({"s": 1000.0}, id="s_nan_norm"),
    ],
    ids=lambda o: next(iter(o)),
)
def test_main_rejects_a_run_input_that_overflows_the_initial_state(tmp_path, capsys, override):
    # the default solitary wave over an infinite domain, or with a width or
    # a velocity that overflows, must fail as a config error, not as a NaN
    # run; so must an index s whose X^s norm of the initial state is inf or NaN
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    _write_config(cfg_path, h0=0.25, t_end=0.1, output_dir=str(out), **override)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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


def test_verify_suite_detects_broken_depth(monkeypatch, capsys):
    # negative control: sabotaged states must be caught, not papered over;
    # every state verify draws is lowered by 2 / eps (eps = 0.5 there)
    draw = gn1d.checks._verify_state

    def lowered(*args):
        zu = draw(*args)
        zu[0] -= 2.0 / 0.5
        return zu

    monkeypatch.setattr(gn1d.checks, "_verify_state", lowered)
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == (
        "operator assembly succeeded  measured 0.000000e+00  required >= 1.000000e+00  FAIL\n"
        "0/1 checks passed\n"
    )
    # the stop is printed as `gn1d run` prints one; verify marches nothing,
    # so it has no time or stage
    assert captured.err == (
        "blowup_depth: depth condition violated: min depth -1.10491 at grid index 36\n"
    )


def test_verify_rejects_a_negative_seed_as_a_config_error(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: seed must be non-negative, got -1\n"


def test_verify_takes_no_config(capsys):
    # verify draws everything it checks from its seed; a run config has no part in it
    with pytest.raises(SystemExit) as info:
        main(["verify", "--config", "run.cfg"])
    assert info.value.code == 2
    assert "unrecognized arguments: --config run.cfg" in capsys.readouterr().err
