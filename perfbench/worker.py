"""One workload process: set up, run timed executions, check every output.

Run from the root of a checkout (``src/gn1d`` must be there); the parent,
``perfbench/run.py``, starts it with the BLAS thread count fixed.

  worker.py --mode setup   time set-up only (import, inputs, warm-up)
  worker.py --mode measure untraced executions for --seconds
  worker.py --mode trace   alternate untraced and traced executions

Every execution is followed by one pass of the reference kernel
(reference.py), which gives each execution its host-normalised time.
The result is one JSON document written to --result.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import REF_NOMINAL_S, Reference  # noqa: E402
from tracer import CallCounter, SpanTracer, summarize  # noqa: E402
from workloads import WARMUP_T_END, Inputs, check  # noqa: E402

# (defining module, public name, span label)
TARGETS = [
    ("gn1d.cli", "main", "cli.main"),
    ("gn1d.cli", "prepare_run", "cli.prepare_run"),
    ("gn1d.cli", "emit_timeseries", "cli.emit_timeseries"),
    ("gn1d.cli", "emit_snapshot", "cli.emit_snapshot"),
    ("gn1d.cli", "verify_suite", "cli.verify_suite"),
    ("gn1d.scenarios", "build_scenario", "scenarios.build_scenario"),
    ("gn1d.core", "compute_depth", "core.compute_depth"),
    ("gn1d.grid_ops", "d1_spectral", "grid_ops.d1_spectral"),
    ("gn1d.grid_ops", "dealias", "grid_ops.dealias"),
    ("gn1d.grid_ops", "apply_symbol", "grid_ops.apply_symbol"),
    ("gn1d.t_operator", "assemble_T", "t_operator.assemble"),
    ("gn1d.t_operator", "solve_T", "t_operator.solve"),
    ("gn1d.t_operator", "apply_T", "t_operator.apply"),
    ("gn1d.gn_rhs", "nonlinear_rhs", "gn_rhs.nonlinear_rhs"),
    ("gn1d.gn_rhs", "apply_A", "gn_rhs.apply_A"),
    ("gn1d.gn_rhs", "eval_B", "gn_rhs.eval_B"),
    ("gn1d.gn_rhs", "q_total", "gn_rhs.q_total"),
    ("gn1d.time_integrator", "run", "time_integrator.run"),
    ("gn1d.time_integrator", "rk4_step", "time_integrator.rk4_step"),
    ("gn1d.time_integrator", "cfl_dt", "time_integrator.cfl_dt"),
    ("gn1d.linearized", "picard_solve", "linearized.picard_solve"),
    ("gn1d.linearized", "solve_linear", "linearized.solve_linear"),
    ("gn1d.linearized", "mollify", "linearized.mollify"),
    ("gn1d.diagnostics", "record_for", "diagnostics.record_for"),
    ("gn1d.diagnostics", "es_norm", "diagnostics.es_norm"),
    ("gn1d.diagnostics", "equivalence_report", "diagnostics.equivalence_report"),
]
STEP_COUNTER = [("gn1d.time_integrator", "rk4_step", "time_integrator.rk4_step")]

# self times of the traced executions must add up to their wall time
SELF_COVERAGE_TOL = 0.02


def percentile(values, q):
    """Linear-interpolated percentile; 0.0 for a function never called."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    return {"n": len(values), "median": statistics.median(values),
            "q1": percentile(values, 25), "q3": percentile(values, 75)}


def array_bytes(obj, seen=None) -> int:
    """ndarray bytes reachable from obj through __dict__, tuples and dicts.

    Reads instance dictionaries directly, so no lazily built property
    (such as a dense view) is triggered.
    """
    import numpy as np

    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(v, seen) for v in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(v, seen) for v in obj.values())
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return array_bytes(vars(obj), seen)
    return 0


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files if f != "run.cfg")


def machine_record(root: str, blas_threads: str) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = getattr(cfg, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "blas_threads": int(blas_threads) if blas_threads else None,
        "git_commit": git_commit(root),
    }


def git_commit(root: str) -> str | None:
    """HEAD of a .git directory in the checkout itself; None when absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.work_dir = os.path.join(HERE, "out", f"{workload}-{seed}-{os.getpid()}")
        self.inputs = Inputs(workload, seed, self.work_dir)

    def execute(self, argv, out_dir, t_end=None) -> dict:
        """One timed call of gn1d.cli.main plus the check of its outputs."""
        import gn1d.cli

        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                code = gn1d.cli.main(argv)
                wall = time.perf_counter() - start
        except Exception:  # an execution that raises is a failed execution
            return {"ok": False, "reason": traceback.format_exc(limit=3)}
        try:
            res = check(self.workload, code, stdout.getvalue(), out_dir, t_end)
        except (OSError, ValueError, IndexError) as exc:
            res = {"ok": False, "reason": f"unreadable output: {exc!r}"}
        if not res["ok"] and stderr.getvalue():
            res["reason"] += f"; stderr: {stderr.getvalue().strip()[-300:]}"
        res["wall_s"] = wall
        res["output_bytes"] = output_bytes(out_dir)
        return res

    def untraced(self, warmup=False) -> dict:
        argv, out_dir = self.inputs.next(warmup=warmup)
        counter = CallCounter(STEP_COUNTER)
        try:
            res = self.execute(argv, out_dir, WARMUP_T_END.get(self.workload) if warmup else None)
        finally:
            counter.restore()
            shutil.rmtree(out_dir, ignore_errors=True)
        counted = counter.counts["time_integrator.rk4_step"]
        if res["ok"] and self.workload != "picard":
            if "steps" in res and res["steps"] != counted:
                res.update(ok=False, reason=f"{counted} RK4 calls for {res['steps']} steps")
            res["steps"] = counted
        return res

    def traced(self) -> tuple[dict, dict]:
        import numpy as np
        from gn1d import t_operator

        apply_T = t_operator.apply_T
        extra = {"max_residual": 0.0, "op_bytes": 0}

        def residual(args, w):
            op, f = args[0], args[1]
            r = float(np.linalg.norm(apply_T(op, w) - f) / np.linalg.norm(f))
            extra["max_residual"] = max(extra["max_residual"], r)

        def op_size(args, op):
            if not extra["op_bytes"]:
                extra["op_bytes"] = array_bytes(op)

        argv, out_dir = self.inputs.next()
        tracer = SpanTracer(
            TARGETS,
            hooks={"t_operator.solve": residual, "t_operator.assemble": op_size},
            counted=[(np.fft, "rfft", "grid_ops.fft"), (np.fft, "irfft", "grid_ops.fft")],
        )
        try:
            res = self.execute(argv, out_dir)
        finally:
            tracer.restore()
            shutil.rmtree(out_dir, ignore_errors=True)
        summary = summarize(tracer.spans)
        summary["grid_ops.fft"] = {"calls": tracer.counts["grid_ops.fft"]}
        info = {"summary": summary, "missing": sorted(tracer.missing), "spans": tracer.spans,
                **extra}
        if res["ok"]:
            problems = cross_check(self.workload, res, summary, tracer.missing)
            total_self = sum(v.get("self_s", 0.0) for v in summary.values())
            info["self_coverage"] = total_self / res["wall_s"]
            if abs(info["self_coverage"] - 1.0) > SELF_COVERAGE_TOL:
                problems.append(f"self times cover {info['self_coverage']:.4f} of the wall time")
            if problems:
                res.update(ok=False, reason="; ".join(problems))
        if self.workload != "picard":
            res["steps"] = summary.get("time_integrator.rk4_step", {}).get("calls", 0)
        return res, info


def cross_check(workload, res, summary, missing) -> list[str]:
    """Exact call-count relations the traced run must satisfy."""
    def calls(label):
        return summary.get(label, {}).get("calls", 0)

    rules = []
    steps = calls("time_integrator.rk4_step")
    if workload == "solitary":
        rules = [
            ("t_operator.assemble", 4 * steps, "4 assemblies per RK4 step"),
            ("gn_rhs.nonlinear_rhs", 4 * steps, "4 tendencies per RK4 step"),
            ("time_integrator.rk4_step", res["steps"], "RK4 calls = steps in timeseries"),
            ("diagnostics.record_for", res["steps"] + 1, "one record per step plus t = 0"),
        ]
    elif workload == "picard":
        m, iters = res["rows"] - 1, res["picard_iters"]
        rules = [
            ("t_operator.assemble", iters * (2 * m + 1), "2m + 1 assemblies per m-step sweep"),
            ("t_operator.solve", iters * 8 * m, "8m solves per m-step sweep"),
            ("linearized.solve_linear", iters, "one linear solve per iteration"),
            ("diagnostics.record_for", m + 1, "one record per output row"),
            ("diagnostics.es_norm", (iters + 1) * (m + 1),
             "one gap norm per snapshot per sweep plus one per record"),
        ]
    return [f"{label}: {calls(label)} calls, expected {want} ({why})"
            for label, want, why in rules
            if label not in missing and calls(label) != want]


# per-layer metric -> (unit, span label, statistic)
LAYER = {
    "t_operator.assemble.calls": ("count", "t_operator.assemble", "calls"),
    "t_operator.assemble.self_s": ("s", "t_operator.assemble", "self_s"),
    "t_operator.assemble.ms_p50": ("ms", "t_operator.assemble", "p50"),
    "t_operator.solve.calls": ("count", "t_operator.solve", "calls"),
    "t_operator.solve.self_s": ("s", "t_operator.solve", "self_s"),
    "t_operator.solve.ms_p50": ("ms", "t_operator.solve", "p50"),
    "t_operator.solve.max_residual": ("1", "t_operator.solve", "max_residual"),
    "t_operator.apply.calls": ("count", "t_operator.apply", "calls"),
    "t_operator.apply.self_s": ("s", "t_operator.apply", "self_s"),
    "t_operator.solves_per_assembly": ("ratio", "t_operator.solve", "per_assembly"),
    "t_operator.op_bytes": ("B", "t_operator.assemble", "op_bytes"),
    "gn_rhs.nonlinear_rhs.self_s": ("s", "gn_rhs.nonlinear_rhs", "self_s"),
    "gn_rhs.apply_A.self_s": ("s", "gn_rhs.apply_A", "self_s"),
    "gn_rhs.eval_B.self_s": ("s", "gn_rhs.eval_B", "self_s"),
    "gn_rhs.q_total.self_s": ("s", "gn_rhs.q_total", "self_s"),
    "grid_ops.d1_spectral.calls": ("count", "grid_ops.d1_spectral", "calls"),
    "grid_ops.d1_spectral.self_s": ("s", "grid_ops.d1_spectral", "self_s"),
    "grid_ops.dealias.calls": ("count", "grid_ops.dealias", "calls"),
    "grid_ops.dealias.self_s": ("s", "grid_ops.dealias", "self_s"),
    "grid_ops.apply_symbol.calls": ("count", "grid_ops.apply_symbol", "calls"),
    "grid_ops.fft.calls": ("count", "grid_ops.fft", "calls"),
    "core.compute_depth.calls": ("count", "core.compute_depth", "calls"),
    "time_integrator.rk4_step.calls": ("count", "time_integrator.rk4_step", "calls"),
    "time_integrator.rk4_step.self_s": ("s", "time_integrator.rk4_step", "self_s"),
    "time_integrator.rk4_step.ms_p50": ("ms", "time_integrator.rk4_step", "p50"),
    "time_integrator.rk4_step.ms_p95": ("ms", "time_integrator.rk4_step", "p95"),
    "time_integrator.cfl_dt.self_s": ("s", "time_integrator.cfl_dt", "self_s"),
    "linearized.solve_linear.calls": ("count", "linearized.solve_linear", "calls"),
    "linearized.solve_linear.self_s": ("s", "linearized.solve_linear", "self_s"),
    "linearized.mollify.calls": ("count", "linearized.mollify", "calls"),
    "linearized.picard_iters": ("count", "linearized.solve_linear", "picard_iters"),
    "diagnostics.record_for.calls": ("count", "diagnostics.record_for", "calls"),
    "diagnostics.record_for.self_s": ("s", "diagnostics.record_for", "self_s"),
    "diagnostics.es_norm.calls": ("count", "diagnostics.es_norm", "calls"),
    "diagnostics.es_norm.self_s": ("s", "diagnostics.es_norm", "self_s"),
    "diagnostics.equivalence_report.self_s": ("s", "diagnostics.equivalence_report", "self_s"),
    "cli.prepare_run.self_s": ("s", "cli.prepare_run", "self_s"),
    "cli.emit_timeseries.self_s": ("s", "cli.emit_timeseries", "self_s"),
    "cli.emit_snapshot.calls": ("count", "cli.emit_snapshot", "calls"),
    "cli.emit_snapshot.self_s": ("s", "cli.emit_snapshot", "self_s"),
    "cli.output_bytes": ("B", "cli.main", "output_bytes"),
    "cli.verify_suite.self_s": ("s", "cli.verify_suite", "self_s"),
    "scenarios.build_scenario.self_s": ("s", "scenarios.build_scenario", "self_s"),
    "trace.overhead": ("ratio", "cli.main", "overhead"),
    "trace.base_wall_s": ("s", "cli.main", "base_wall_s"),
    "trace.self_coverage": ("ratio", "cli.main", "self_coverage"),
}


def layer_metrics(traced: list[tuple[dict, dict]], base_walls: list[float]) -> dict:
    """Per-layer metrics over the passing traced executions.

    Counts and self times are per execution (median over executions);
    percentiles pool every call.  A label whose function no longer exists
    reads null.
    """
    infos = [info for res, info in traced if res["ok"]]
    walls = [res["wall_s"] for res, info in traced if res["ok"]]
    missing = set().union(*(info["missing"] for info in infos)) if infos else set()
    out = {}
    for name, (unit, label, stat) in LAYER.items():
        if label in missing or not infos:
            out[name] = {"value": None, "unit": unit}
            continue
        recs = [info["summary"].get(label, {}) for info in infos]
        if stat == "calls":
            value = statistics.median_low(r.get("calls", 0) for r in recs)
        elif stat == "self_s":
            value = statistics.median(r.get("self_s", 0.0) for r in recs)
        elif stat in ("p50", "p95"):
            pooled = [d for r in recs for d in r.get("durations", [])]
            value = 1e3 * percentile(pooled, 50 if stat == "p50" else 95)
        elif stat == "per_assembly":
            per = [info["summary"].get("t_operator.assemble", {}).get("calls", 0) for info in infos]
            value = statistics.median(r.get("calls", 0) / a if a else 0.0
                                      for r, a in zip(recs, per))
        elif stat == "picard_iters":
            value = statistics.median_low(res.get("picard_iters", 0) for res, _ in traced if res["ok"])
        elif stat == "output_bytes":
            value = statistics.median_low(res["output_bytes"] for res, _ in traced if res["ok"])
        elif stat == "overhead":
            value = statistics.median(walls) / statistics.median(base_walls) if base_walls else None
        elif stat == "base_wall_s":
            value = statistics.median(base_walls) if base_walls else None
        elif stat == "self_coverage":
            value = statistics.median(info["self_coverage"] for info in infos)
        else:
            value = max(info[stat] for info in infos)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(path: str, workload: str, seed: int, traced) -> None:
    """All spans of the traced executions: [label, start, end, parent index]."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "executions": [
            {"ok": res["ok"], "wall_s": res.get("wall_s"), "spans": info["spans"]}
            for res, info in traced]}, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    runner = Runner(args.workload, args.seed)
    import gn1d.cli  # noqa: F401  (the import is part of set-up)

    if not os.path.abspath(gn1d.__file__).startswith(src + os.sep):
        print(f"gn1d imported from {gn1d.__file__}, not from {src}", file=sys.stderr)
        return 2
    warm = runner.untraced(warmup=True)
    if not warm["ok"]:
        print(f"warm-up execution failed: {warm['reason']}", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - T_PROCESS
    ref = Reference()
    ref_s = ref.settled()
    result = {"setup_s": setup_s, "setup_ref_s": ref_s,
              "setup_norm_s": setup_s / ref_s * REF_NOMINAL_S}

    if args.mode != "setup":
        start = time.perf_counter()
        execs, traced = [], []

        def timed(res):
            # the kernel is timed after every execution; an execution's
            # host speed is the mean of the passes before and after it
            nonlocal ref_s
            after = ref.time()
            res["ref_s"] = 0.5 * (ref_s + after)
            ref_s = after
            return res

        while True:
            execs.append(timed(runner.untraced()))
            if args.mode == "trace":
                res, info = runner.traced()
                traced.append((timed(res), info))
            # stop when one more round would end nearer past the mark than before it
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(execs) >= args.seconds:
                break
        # end-to-end figures come from the untraced executions only
        ok = [r for r in execs if r["ok"]]
        norm = [r["wall_s"] / r["ref_s"] * REF_NOMINAL_S for r in ok]
        if args.mode == "trace":
            execs += [res for res, info in traced]
            result["layer"] = layer_metrics(traced, [r["wall_s"] for r in ok])
            write_spans(os.path.join(HERE, "out", f"spans_{args.workload}.json"),
                        args.workload, args.seed, traced)
        result.update({
            "attempted": len(execs),
            "failures": [r["reason"] for r in execs if not r["ok"]],
            "wall_s": quartiles([r["wall_s"] for r in ok]) if ok else None,
            "wall_norm_s": quartiles(norm) if ok else None,
            "ref_s": statistics.median(r["ref_s"] for r in execs),
            "steps": sorted({r["steps"] for r in ok}),
            "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in ok) if ok else None,
            "steps_per_norm_s": (statistics.median(r["steps"] / t for r, t in zip(ok, norm))
                                 if ok else None),
            "energy_drift": statistics.median(r["energy_drift"] for r in ok) if ok else None,
            "picard_iters": sorted({r["picard_iters"] for r in ok if "picard_iters" in r}),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine_record(root, os.environ.get("OPENBLAS_NUM_THREADS")),
        })
    shutil.rmtree(runner.work_dir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
