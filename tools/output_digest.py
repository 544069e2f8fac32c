"""Print a sha256 digest of everything gn1d writes for a fixed list of cases.

Run it from the root of a checkout:

    python tools/output_digest.py

gn1d is imported from that checkout's ``src``, so running the same script
from the roots of two checkouts and diffing the two outputs shows whether
they produce the same bytes.  Each case is one call of ``gn1d.cli.main``
in its own temporary directory, beside the input files it names in
``FILES``; one line ``sha256 name`` is printed for the case's stdout, its
stderr, its exit code and every file it writes.
An argv that argparse rejects is a case like any other: its usage text
is its stderr, and argparse's exit code its exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import math
import os
import sys
import tempfile
from pathlib import Path

# the solitary and picard benchmark configs of this checkout's
# perfbench/workloads.py (only read), each at one fixed crest position x0
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
SOLITARY_BENCH = {**_workloads.SOLITARY, "x0": 12.5}
PICARD_BENCH = {**_workloads.PICARD, "x0": 47.5}

# an over-tall hump whose depth falls below the floor within t_end
_TALL_HUMP = {
    "scenario": "hump", "n": 64, "length": 20.0, "epsilon": 1.0, "amplitude": 2.0,
    "width": 1.0, "h0": 0.95, "t_end": 5.0,
}

# a bottom sampled at 32 points from an origin off the grid's first node, in
# a file with CRLF line ends, a comment and a blank line
_BOTTOM = "# x b\r\n\r\n" + "".join(
    f"{x!r} {0.15 * math.cos(2.0 * math.pi * (x - 40.0) / 60.0):.6f}\r\n"
    for x in (1.5 + 1.875 * k for k in range(32))
)

# name -> (command, config keys over the defaults); only a run case has a config.
# Every outcome status has a case: completed (default), blowup_depth
# (hump_depth_loss), blowup_norm (norm_ceiling), solver_failure and
# picard_not_converged.
CASES = {
    "default": ("run", {"t_end": 2.0, "snapshot_every": 0.7}),
    "solitary_bench": ("run", SOLITARY_BENCH),
    "hump_depth_loss": ("run", {**_TALL_HUMP, "snapshot_every": 0.05}),
    # early stops of the picard and linearized modes: one stderr line, picard's
    # gaps of its completed sweeps, no timeseries.dat
    "picard_depth_loss": ("run", {**_TALL_HUMP, "mode": "picard"}),
    "linearized_reference_stop": ("run", {**_TALL_HUMP, "mode": "linearized"}),
    "picard_overflow": ("run", {"amplitude": 1e200, "h0": 0.5, "t_end": 0.1, "mode": "picard"}),
    "picard_not_converged": ("run", {"mode": "picard", "t_end": 0.1, "picard_max_iters": 1}),
    # a domain so short that mu / dx^2 swamps the depth in T, which is then
    # positive definite in exact arithmetic only: pbtrf fails at the first stage
    "solver_failure": ("run", {
        "scenario": "hump", "n": 64, "length": 1e-7, "width": 1e-7, "amplitude": 0.1,
        "t_end": 1e-9,
    }),
    "norm_ceiling": ("run", {"blowup_factor": 1.0000001, "t_end": 1.0, "snapshot_every": 0.2}),
    "linearized": ("run", {"mode": "linearized", "t_end": 1.0, "mollifier_delta": 0.5}),
    "picard_bar": ("run", {
        "scenario": "hump_over_bar", "mode": "picard", "t_end": 0.3, "mollifier_delta": 0.5,
    }),
    "picard_bench": ("run", PICARD_BENCH),
    # the nonlinear and the linearized march over a bar, where the b_x and
    # b_xx terms of q_total and coefficient_fields are nonzero outside picard
    "nonlinear_bar": ("run", {"scenario": "hump_over_bar", "t_end": 1.0, "snapshot_every": 0.5}),
    "linearized_bar": ("run", {"scenario": "hump_over_bar", "mode": "linearized", "t_end": 0.5}),
    # still water over a bar placed off centre: every snapshot must keep
    # the rest state's bits
    "rest_over_bar": ("run", {
        "scenario": "rest_over_bar", "x0": 20.0, "t_end": 1.0, "snapshot_every": 0.5,
    }),
    # a domain long against the dispersive length: the factor of T holds
    # subnormal entries, so band storage, factor and apply meet them
    "long_domain": ("run", {
        "scenario": "solitary", "n": 2048, "length": 960.0, "epsilon": 0.5, "mu": 0.5,
        "amplitude": 0.4, "h0": 0.25, "t_end": 0.5, "snapshot_every": 0.25,
    }),
    # a nonlinear run with snapshots over the bottom read from FILES' bottom.dat
    "bathymetry_file": ("run", {
        "scenario": "hump", "bathymetry_file": "bottom.dat", "t_end": 1.0,
        "snapshot_every": 0.5,
    }),
    "verify": ("verify", None),
    "scenarios": ("scenarios", None),
}


# name -> {file name: text}, written into the case's directory before it runs
FILES = {"bathymetry_file": {"bottom.dat": _BOTTOM}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_case(name: str) -> list[str]:
    """Run one case in a fresh temporary directory; return its `sha256 name` lines."""
    from gn1d.cli import main

    command, keys = CASES[name]
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for file_name, text in FILES.get(name, {}).items():
                Path(file_name).write_bytes(text.encode())
            argv = [command, "--seed", "1234"] if command == "verify" else [command]
            if keys is not None:
                lines = [f"{k} = {v}" for k, v in keys.items()] + ["output_dir = out"]
                Path("case.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
                argv += ["--config", "case.cfg"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's exit, its usage text in err
                    code = exc.code
            digests = [
                (_sha(out.getvalue().encode()), f"{name}/stdout"),
                (_sha(err.getvalue().encode()), f"{name}/stderr"),
                (_sha(str(code).encode()), f"{name}/exit"),
            ]
            written = sorted(p for p in Path("out").rglob("*") if p.is_file())
            digests += [(_sha(p.read_bytes()), f"{name}/{p.as_posix()}") for p in written]
        finally:
            os.chdir(start)
    return [f"{sha} {label}" for sha, label in digests]


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "gn1d" / "__init__.py").is_file():
        print(f"no gn1d package under {src}; run this from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for name in CASES:
        print("\n".join(digest_case(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
