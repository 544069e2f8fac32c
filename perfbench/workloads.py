"""Benchmark workloads: inputs generated from the seed, and output checks.

Every execution is one call of ``gn1d.cli.main`` with an argv list; the
program only ever sees the generated config file or ``--seed`` value.

- ``solitary``: ``gn1d run`` in nonlinear mode on the canonical solitary
  wave, n = 512.  One assembly and one solve per RK4 stage; the dense
  assembly and factorization of T dominate.
- ``picard``: ``gn1d run`` in picard mode (the acceptance 07 setting,
  with t_end = 0.2: four iterations, as at t_end = 0.5, in a 3 s
  execution rather than a 9 s one).  About four solves per assembly plus
  one energy-norm gap per snapshot per sweep; it weighs solving against
  factorizing.
- ``verify``: ``gn1d verify``.  Many small (n = 128, 256) operators and
  property sweeps; per-call overhead dominates, not O(n^3).  It runs on
  request but is not in BENCHMARK.json: its 0.3 s executions allocate and
  page-fault heavily, and on a shared 2-core host the median of a run
  moved by 27% between seeds, more than the largest allowed bound.

The seed picks the crest position x0 on a grid node, so every execution
of a workload does the same work (the translation is exact on the grid),
and for ``verify`` the suite's own RNG seed.
"""

from __future__ import annotations

import os
import random
import re

SOLITARY = {
    "scenario": "solitary", "mode": "nonlinear", "n": 512, "length": 60.0,
    "epsilon": 0.5, "mu": 0.5, "amplitude": 0.4, "h0": 0.25, "cfl": 0.5,
    "t_end": 4.0, "snapshot_every": 1.0,
}
PICARD = {
    "scenario": "solitary", "mode": "picard", "n": 512, "length": 120.0,
    "epsilon": 0.5, "mu": 0.5, "amplitude": 0.1, "h0": 0.4, "cfl": 0.5,
    "dt_max": 0.005, "t_end": 0.2,
}
# short versions that touch the same code paths, run once before timing
WARMUP_T_END = {"solitary": 0.1, "picard": 0.01}

WORKLOADS = ("solitary", "picard", "verify")

ENERGY_DRIFT_MAX = 1e-6
MASS_DRIFT_MAX = 1e-12


class Inputs:
    """Deterministic stream of executions for one (workload, seed)."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
        self.workload = workload
        self.work_dir = work_dir
        self._rng = random.Random(f"gn1d-bench:{workload}:{seed}")
        self._count = 0

    def next(self, warmup: bool = False) -> tuple[list[str], str]:
        """Write the next execution's inputs; return (argv, output dir)."""
        self._count += 1
        out_dir = os.path.join(self.work_dir, f"exec_{self._count:04d}")
        os.makedirs(out_dir, exist_ok=True)
        if self.workload == "verify":
            return ["verify", "--seed", str(self._rng.randrange(2**31))], out_dir
        cfg = dict(SOLITARY if self.workload == "solitary" else PICARD)
        dx = cfg["length"] / cfg["n"]
        cfg["x0"] = dx * self._rng.randrange(cfg["n"])
        if warmup:
            cfg["t_end"] = WARMUP_T_END[self.workload]
        cfg["output_dir"] = out_dir
        path = os.path.join(out_dir, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                          for k, v in cfg.items())
        return ["run", "--config", path], out_dir


def _timeseries(out_dir: str) -> list[list[float]]:
    with open(os.path.join(out_dir, "timeseries.dat"), encoding="utf-8") as fh:
        return [[float(v) for v in line.split()] for line in fh if not line.startswith("#")]


def _drifts(rows) -> tuple[float, float]:
    e0, m0 = rows[0][1], rows[0][2]
    energy = max(abs(r[1] - e0) for r in rows) / e0
    mass = max(abs(r[2] - m0) for r in rows)
    return energy, mass


def check(workload: str, code: int, stdout: str, out_dir: str, t_end: float | None = None) -> dict:
    """Check one execution's outputs.

    Returns a dict with ``ok``, ``reason`` (when not ok), ``steps`` (RK4
    steps: linear steps summed over sweeps for picard), ``energy_drift``
    and, for picard, ``picard_iters`` and ``rows``.
    """
    if code != 0:
        return {"ok": False, "reason": f"exit code {code}"}
    if workload == "verify":
        m = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.M)
        drift = re.search(r"^energy drift \(relative, t=2\)\s+measured (\S+)", stdout, re.M)
        if not m or m.group(1) != m.group(2) or not drift:
            return {"ok": False, "reason": "verification table incomplete or failing"}
        return {"ok": True, "energy_drift": float(drift.group(1))}

    rows = _timeseries(out_dir)
    energy, mass = _drifts(rows)
    t_end = t_end if t_end is not None else (SOLITARY if workload == "solitary" else PICARD)["t_end"]
    if abs(rows[-1][0] - t_end) > 1e-9 * t_end:
        return {"ok": False, "reason": f"final time {rows[-1][0]!r} != t_end {t_end!r}"}
    if workload == "solitary":
        m = re.search(r"^completed: .* steps = (\d+),", stdout, re.M)
        if not m or int(m.group(1)) != len(rows) - 1:
            return {"ok": False, "reason": "run did not complete or step count mismatch"}
        if not energy <= ENERGY_DRIFT_MAX:
            return {"ok": False, "reason": f"energy drift {energy:.3e} > {ENERGY_DRIFT_MAX}"}
        if not mass <= MASS_DRIFT_MAX:
            return {"ok": False, "reason": f"mass drift {mass:.3e} > {MASS_DRIFT_MAX}"}
        return {"ok": True, "steps": len(rows) - 1, "energy_drift": energy}

    m = re.search(r"^converged in (\d+) iterations$", stdout, re.M)
    if not m:
        return {"ok": False, "reason": "picard iteration did not converge"}
    iters = int(m.group(1))
    return {"ok": True, "steps": iters * (len(rows) - 1), "picard_iters": iters,
            "rows": len(rows), "energy_drift": energy}
