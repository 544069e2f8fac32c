"""Record a baseline: every workload on several seeds, plus two traced seeds.

  python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1,2 \
      --out perfbench/baseline_dense_cholesky.json

Run from the root of a checkout.  For each end-to-end metric it records
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  The traced seeds must agree exactly
on every call count and on the Picard iteration count.  Exits 1 when a
run fails, a spread other than set-up time exceeds its bound, or the
traced counts differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"result_{workload}_trace{trace}.json"),
              encoding="utf-8") as fh:
        result["record"] = json.load(fh)
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="1,2")
    p.add_argument("--workloads", default=None, help="comma list; default: all in BENCHMARK.json")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    problems, report, machine = [], {}, None
    for workload in workloads:
        runs = [bench(workload, s, seconds, 0) for s in seed_list(args.seeds)]
        machine = runs[-1]["record"]["machine"]
        entry = {"seeds": seed_list(args.seeds), "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        if entry["failed"] or not all(r["correct"] for r in runs):
            problems.append(f"{workload}: failed executions")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values}
            print(f"  {m['name']:<14} median {median:.6g} {m['unit']}, spread {spread:.4f} "
                  f"(bound {m['bound']})", flush=True)
            if m["name"] != "setup_s" and spread > m["bound"]:
                problems.append(f"{workload}: {m['name']} spread {spread:.4f} > {m['bound']}")

        traced = [bench(workload, s, seconds, 1) for s in seed_list(args.trace_seeds)]
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith(".calls") or k == "linearized.picard_iters"} for r in traced]
        if any(c != counts[0] for c in counts) or not all(r["correct"] for r in traced):
            problems.append(f"{workload}: traced seeds disagree on counts or failed")
        entry["trace"] = {"seeds": seed_list(args.trace_seeds), "counts_identical":
                          all(c == counts[0] for c in counts),
                          "per_layer": traced[0]["metrics"]}
        report[workload] = entry

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": seconds, "machine": machine, "workloads": report,
                   "problems": problems}, fh, indent=1)
        fh.write("\n")
    for line in problems:
        print(f"PROBLEM: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
