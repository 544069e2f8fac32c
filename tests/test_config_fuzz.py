"""Seeded config fuzz: no input to `gn1d run` ends in a traceback.

A fixed seed draws short, small runs (n <= 64, t_end <= 0.05) in every
mode and scenario, and sets one or two keys of each to a value from an
extreme pool: 0, negative, NaN, infinite, huge, tiny, unparsable, or an
odd or tiny n.  A second seed draws such runs over a bathymetry file from
a pool of good and bad ones, with at most one extreme key, and a fixed
cross runs every mode at every t_end of the pool.  Whatever the
values, `main` must return 0, 1 or 2, a failing run must say why in
exactly one labeled line on stderr, and nothing may raise or warn on the
way.
"""

import warnings
from dataclasses import fields

import numpy as np

from gn1d.cli import RunConfig, main
from gn1d.scenarios import SCENARIOS

SEED = 26
CONFIGS = 300
MODES = ("nonlinear", "linearized", "picard")
STOP_LABELS = ("blowup_depth", "blowup_norm", "solver_failure", "not_converged")

_FLOATS = ("0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "5e-324")
# n and t_end stay small (n <= 64, every finite t_end <= 0.05), so no draw makes a run long
POOLS = {
    "n": ("0", "-4", "1", "2", "3", "4", "5", "7", "9", "33", "63", "nan", "1e300"),
    "t_end": ("0", "-0.0", "-1", "nan", "inf", "-inf", "1e-300", "5e-324", "0.05"),
    "picard_max_iters": ("0", "-1", "1", "2", "nan", "1e300"),
    "scenario": ("", "bogus", *SCENARIOS),
    "mode": ("", "bogus", *MODES),
}
KEYS = [f.name for f in fields(RunConfig) if f.name not in ("output_dir", "bathymetry_file")]

BATHYMETRY_SEED = 27
BATHYMETRY_CONFIGS = 150


def _rows(xs, bs, end="\n") -> bytes:
    return "".join(f"{float(x)!r} {float(b)!r}{end}" for x, b in zip(xs, bs)).encode()


# one period of the default 60-long domain, then files that each break one rule
_XS = np.arange(16) * 60.0 / 16
_BOTTOM = 0.1 * np.cos(2.0 * np.pi * _XS / 60.0)
BATHYMETRY_FILES = {
    "valid": _rows(_XS, _BOTTOM),
    "huge": _rows(_XS, np.full(16, 1e308)),
    "alternating_huge": _rows(_XS, 1e308 * (-1.0) ** np.arange(16)),
    "nan": _rows(_XS, np.where(np.arange(16) == 5, np.nan, _BOTTOM)),
    "seven_rows": _rows(np.arange(7) * 60.0 / 7, np.zeros(7)),
    "uneven": _rows(np.where(np.arange(16) == 7, _XS + 0.5, _XS), _BOTTOM),
    "wrong_period": _rows(np.arange(16) * 61.0 / 16, _BOTTOM),
    "not_utf8": _rows(_XS, _BOTTOM) + b"\xff 0\n",
    "form_feed": _rows(_XS, _BOTTOM, end="\x0c"),
    "comment_only": b"# x b\n",
    "missing": None,
}


def _draw(rng: np.random.Generator, keys=(1, 2)) -> dict[str, str]:
    """A small base run with keys[0] to keys[1] keys set from their extreme pools."""
    cfg = {
        "scenario": str(rng.choice(sorted(SCENARIOS))),
        "mode": str(rng.choice(MODES)),
        "n": str(rng.choice((16, 32, 64))),
        "t_end": "0.05",
        "dt_max": "0.01",
        "picard_max_iters": "4",
    }
    for key in rng.choice(KEYS, size=rng.integers(keys[0], keys[1] + 1), replace=False):
        cfg[str(key)] = str(rng.choice(POOLS.get(str(key), _FLOATS)))
    return cfg


def _run_each(configs, tmp_path, capsys) -> list[int]:
    """Run each config; check its exit, its stderr and that nothing warned."""
    path = tmp_path / "fuzz.cfg"
    codes = []
    for cfg in configs:
        cfg["output_dir"] = str(tmp_path / "out")
        text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path)])
        err = capsys.readouterr().err.splitlines()
        assert not caught, f"{text}warned: {[str(w.message) for w in caught]}"
        assert code in (0, 1, 2), text
        if code == 0:
            assert err == [], text
        else:
            labels = ("config error",) if code == 2 else STOP_LABELS
            assert len(err) == 1 and err[0].split(":")[0] in labels, f"{text}stderr: {err}"
        codes.append(code)
    return codes


def test_no_drawn_config_raises_warns_or_exits_unlabeled(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    codes = _run_each((_draw(rng) for _ in range(CONFIGS)), tmp_path, capsys)
    # the draws reach every exit
    assert set(codes) == {0, 1, 2}


def test_no_drawn_bathymetry_file_raises_warns_or_exits_unlabeled(tmp_path, capsys):
    for name, data in BATHYMETRY_FILES.items():
        if data is not None:
            (tmp_path / f"{name}.dat").write_bytes(data)
    rng = np.random.default_rng(BATHYMETRY_SEED)
    configs, names = [], []
    for _ in range(BATHYMETRY_CONFIGS):
        cfg = _draw(rng, keys=(0, 1))
        names.append(str(rng.choice(sorted(BATHYMETRY_FILES))))
        cfg["bathymetry_file"] = str(tmp_path / f"{names[-1]}.dat")
        configs.append(cfg)
    codes = _run_each(configs, tmp_path, capsys)
    # the draws name every file, and runs over a good file complete
    assert set(names) == set(BATHYMETRY_FILES)
    assert {0, 2} <= set(codes)


def test_every_t_end_in_every_mode_exits_labeled(tmp_path, capsys):
    # a fixed cross, so no seed decides whether a mode meets a t_end so
    # short that its march takes no step
    configs = [
        {"mode": mode, "n": "16", "t_end": t_end, "dt_max": "0.01", "picard_max_iters": "4"}
        for mode in MODES
        for t_end in POOLS["t_end"]
    ]
    assert len(configs) == 27
    _run_each(configs, tmp_path, capsys)
