"""Time two gn1d checkouts against each other in one process, pair by pair.

    python tools/paired_bench.py A_ROOT B_ROOT [--pairs N]

Each checkout's ``src/gn1d`` is imported under its own package name
(``gn1d_a`` and ``gn1d_b``), and the solitary and picard benchmark configs
of ``tools/output_digest.py`` (perfbench's, at a fixed crest position) are
run through each side's ``cli.main`` with one BLAS thread.  A pair is
REPEATS timed executions of each side, interleaved, and a side's time in
the pair is its fastest; which side goes first alternates from pair to
pair, after one untimed execution of each side.  Per workload it prints
both sides' median seconds and quartiles, the pairs each side won, the
two-sided sign-test p-value with ties left out, and the largest absolute
difference between the two sides' ``timeseries.dat`` values (0 when both
write the same numbers).  It gates nothing: the benchmark is the record.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

_DIGEST = Path(__file__).resolve().with_name("output_digest.py")
_spec = importlib.util.spec_from_file_location("output_digest", _DIGEST)
_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_digest)
WORKLOADS = {"solitary": _digest.SOLITARY_BENCH, "picard": _digest.PICARD_BENCH}

# the fastest of two drops many of the slow spells of a shared host; on a
# 2-core host a third cost 50% more time and separated the sides no better
REPEATS = 2
HEADER = (
    "workload pairs A_q1_s A_median_s A_q3_s B_q1_s B_median_s B_q3_s"
    " A_won B_won sign_p max_abs_diff"
)


def load_cli(root: str | Path, name: str):
    """Import ROOT/src/gn1d as the package `name`; return its cli module."""
    package = Path(root).resolve() / "src" / "gn1d"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses (ties left out)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def _execute(cli, keys: dict, tmp: str) -> tuple[float, list[list[float]]]:
    """One timed `gn1d run` of keys in a new directory under tmp: (seconds, timeseries rows)."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    lines = [f"{k} = {v}" for k, v in {**keys, "output_dir": work / "out"}.items()]
    (work / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(["run", "--config", str(work / "run.cfg")])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"run exited {code}: {sink.getvalue().strip()}")
    text = (work / "out" / "timeseries.dat").read_text(encoding="utf-8")
    return elapsed, [[float(v) for v in line.split()] for line in text.splitlines()[1:]]


def _max_abs_diff(a: list[list[float]], b: list[list[float]]) -> float:
    if [len(r) for r in a] != [len(r) for r in b]:
        return math.inf
    return max((abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)), default=0.0)


def compare(cli_a, cli_b, pairs: int, workloads: dict[str, dict]) -> list[str]:
    """Run `pairs` alternating pairs of each workload; return HEADER and one row per workload."""
    out = [HEADER]
    with tempfile.TemporaryDirectory() as tmp:
        for name, keys in workloads.items():
            _execute(cli_a, keys, tmp)
            _execute(cli_b, keys, tmp)
            times = {cli_a: [], cli_b: []}
            diff = 0.0
            for i in range(pairs):
                order = (cli_a, cli_b) if i % 2 == 0 else (cli_b, cli_a)
                best = {cli_a: math.inf, cli_b: math.inf}
                rows = {}
                for _ in range(REPEATS):
                    for cli in order:
                        elapsed, rows[cli] = _execute(cli, keys, tmp)
                        best[cli] = min(best[cli], elapsed)
                for cli in order:
                    times[cli].append(best[cli])
                diff = max(diff, _max_abs_diff(rows[cli_a], rows[cli_b]))
            a, b = times[cli_a], times[cli_b]
            a_won = sum(x < y for x, y in zip(a, b))
            b_won = sum(y < x for x, y in zip(a, b))
            quartiles = [
                f"{q:.5f}" for side in (a, b)
                for q in statistics.quantiles(side, n=4, method="inclusive")
            ]
            out.append(" ".join([
                name, str(pairs), *quartiles, str(a_won), str(b_won),
                f"{sign_test(a_won, b_won):.4g}", f"{diff:.3g}",
            ]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_root", help="checkout A (its src/gn1d is timed)")
    parser.add_argument("b_root", help="checkout B")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for root in (args.a_root, args.b_root):
        if not (Path(root) / "src" / "gn1d" / "__init__.py").is_file():
            parser.error(f"no gn1d package under {root}/src")
    # one BLAS thread, set before either side imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cli_a, cli_b = load_cli(args.a_root, "gn1d_a"), load_cli(args.b_root, "gn1d_b")
    print("\n".join(compare(cli_a, cli_b, args.pairs, WORKLOADS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
