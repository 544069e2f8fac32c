"""gn1d benchmark: time to solution per workload, with a traced per-layer run.

Usage, from the root of a checkout that holds ``src/gn1d``:

  python3 perfbench/run.py --workload {solitary,picard,verify} --seed N \
      --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off; ``--trace 1`` alternates untraced and traced executions and
reports the per-layer metrics.  The timings among the end-to-end metrics
are host-normalised (see perfbench/reference.py): each execution's wall
time is scaled by a fixed reference kernel timed around it, which cancels
the shared host's speed swings; the raw wall times are printed beside
them.  Set-up time is the median over several fresh processes.  The workload runs in its own process with the BLAS
thread count fixed.  Human-readable lines come first; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  Spans of the traced executions and the full result,
including the machine record, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import REF_NOMINAL_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# One BLAS thread: the dense solver gains little from the second core of
# a small shared machine, and a single thread keeps run-to-run spread low.
BLAS_THREADS = 1
# set-up is timed in this many fresh processes (the timed process is one more)
SETUP_PROBES = 6
DEADLINE_S = 170.0


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def run_worker(mode, args, env, result_path, deadline) -> dict:
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--result", result_path]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gn1d", "__init__.py")):
        return fail(f"no gn1d sources under {os.path.join(root, 'src')}; "
                    "run from the root of a gn1d checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"

    def setup_of(res):
        return {k: res[k] for k in ("setup_s", "setup_ref_s", "setup_norm_s")}

    def setup_probes(count):
        return [setup_of(run_worker("setup", args, env, os.path.join(out_dir, f"setup-{tag}.json"),
                                    deadline)) for _ in range(count)]

    try:
        # probes before and after the timed process, so that set-up is
        # sampled across the run rather than in one burst
        setups = setup_probes(SETUP_PROBES // 2)
        mode = "trace" if args.trace else "measure"
        res = run_worker(mode, args, env, os.path.join(out_dir, f"{mode}-{tag}.json"), deadline)
        setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2) + [setup_of(res)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(str(exc), 1)
    finally:
        for name in os.listdir(out_dir):
            if tag in name:
                os.remove(os.path.join(out_dir, name))

    attempted, failed = res["attempted"], len(res["failures"])
    wall, norm = res["wall_s"], res["wall_norm_s"]
    ok = failed == 0 and wall is not None
    end_to_end = {
        "wall_norm_s": norm and norm["median"],
        "steps_per_norm_s": res["steps_per_norm_s"],
        "setup_s": statistics.median(s["setup_norm_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "energy_drift": res["energy_drift"],
    }
    if args.trace:
        wanted, source = spec["per_layer"], res["layer"]
    else:
        wanted = spec["end_to_end"]
        source = {m["name"]: {"value": end_to_end.get(m["name"]), "unit": m["unit"]}
                  for m in wanted}
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            return fail(f"metric {m['name']} ({m['unit']}) not produced")
        metrics[m["name"]] = got

    print(f"gn1d benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    for reason in res["failures"]:
        print(f"FAILED execution: {reason}")
    if wall:
        print(f"wall_norm_s = {norm['median']:.6g} s per execution, host-normalised "
              f"(median of {norm['n']}, quartiles {norm['q1']:.6g} .. {norm['q3']:.6g})")
        print(f"raw wall_s = {wall['median']:.6g} s per execution "
              f"(median of {wall['n']}, quartiles {wall['q1']:.6g} .. {wall['q3']:.6g}); "
              f"raw steps_per_s = {res['steps_per_s']:.6g}")
    print(f"reference kernel = {res['ref_s']:.6g} s median "
          f"(host speed {REF_NOMINAL_S / res['ref_s']:.4g} x the baseline host)")
    print(f"steps per execution = {res['steps']}")
    if res["picard_iters"]:
        print(f"picard_iters = {res['picard_iters']} iterations to converge")
    print(f"fail_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(f"setup_s samples = {[round(s['setup_norm_s'], 4) for s in setups]} host-normalised, "
          f"{[round(s['setup_s'], 4) for s in setups]} raw")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": res["machine"], "wall_s": wall,
              "wall_norm_s": norm, "ref_s": res["ref_s"], "steps_per_s": res["steps_per_s"],
              "steps": res["steps"], "picard_iters": res["picard_iters"],
              "setup_samples_s": setups, "failures": res["failures"], "metrics": metrics}
    with open(os.path.join(out_dir, f"result_{args.workload}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
