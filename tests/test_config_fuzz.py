"""Seeded config fuzz: no input to `gn1d run` ends in a traceback.

A fixed seed draws short, small runs (n <= 64, t_end <= 0.05) in every
mode and scenario, and sets one or two keys of each to a value from an
extreme pool: 0, negative, NaN, infinite, huge, tiny, unparsable, or an
odd or tiny n.  Whatever the values, `main` must return 0, 1 or 2, a
failing run must say why in exactly one labeled line on stderr, and
nothing may raise or warn on the way.
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


def _draw(rng: np.random.Generator) -> dict[str, str]:
    """A small base run with one or two keys set from their extreme pools."""
    cfg = {
        "scenario": str(rng.choice(sorted(SCENARIOS))),
        "mode": str(rng.choice(MODES)),
        "n": str(rng.choice((16, 32, 64))),
        "t_end": "0.05",
        "dt_max": "0.01",
        "picard_max_iters": "4",
    }
    for key in rng.choice(KEYS, size=rng.integers(1, 3), replace=False):
        cfg[str(key)] = str(rng.choice(POOLS.get(str(key), _FLOATS)))
    return cfg


def test_no_drawn_config_raises_warns_or_exits_unlabeled(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "fuzz.cfg"
    codes = []
    for _ in range(CONFIGS):
        cfg = _draw(rng)
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
    # the draws reach every exit
    assert set(codes) == {0, 1, 2}
