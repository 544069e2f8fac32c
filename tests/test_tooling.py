"""Names that tooling and docs take from gn1d must still match gn1d.

The benchmark's tracer targets must name functions that exist in gn1d:
perfbench/worker.py lists (module, public name, span label) triples that
its tracer wraps.  The tracer reports a name that has gone as null rather
than failing, so a rename would silently blind the per-layer metrics;
this test makes it fail here instead.  The lists are read with ast, so
that check does not import the worker.  A target that the picard workload stops
calling would read 0 just as silently, so a tiny Picard solve, counted
by the benchmark's own CallCounter, must reach every linear-path
target (one solve plain, one mollified).  A tiny run of each benchmark
workload, counted the same way, must keep worker.cross_check's exact
count rules, so a count break fails here and not only in a benchmark
run.  tools/paired_bench.py, run for two tiny pairs of this checkout
against itself, must print rows that parse and show no output
difference.  tools/output_digest.py must hash every output of a case,
and record an argv that argparse rejects as that case's stderr and exit;
run over all its cases, it must print tests/data/output_digest.txt line
for line, on the numpy, scipy and BLAS that file's header names.
The README's config table must list the RunConfig fields, in order,
and its scenario row every name in SCENARIOS, so the documented keys
cannot drift; every RunConfig field must be read by a run, so the
config of `gn1d run` carries no key that only `gn1d verify` reads.  The
README's table of outcome statuses must list exactly the statuses a
march can end with, and every StopError subclass must carry one of them.
Only core raises NonFiniteError or quiets numpy's overflow and
invalid-value warnings, so every march shares one finite test and one
overflow policy.  Each march calls time_integrator.require_march once,
and only require_march words its start and grid refusals, so a second
entry test cannot grow back beside it.  A state travels through gn1d as one (2, n) stack: no module unpacks a
stack into State(*...) or restacks (....zeta, ....u).  No
module of gn1d or of its tests may import a name it never uses, so a
deletion cannot leave a stale import behind (checked with ast; no
linter is needed).  Every bound of a guarantee is read through a name,
so that `gn1d verify` and the acceptance suite cannot drift apart.
Every name the package exports is imported from gn1d by a test, a tool
or a README example, so gn1d exports no name that nothing uses.
"""

import ast
import hashlib
import importlib
import importlib.util
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gn1d
import gn1d.cli
from gn1d import SCENARIOS, Bathymetry, Grid, Parameters, StepControl, gaussian_hump
from gn1d.cli import RunConfig

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
SRC = ROOT / "src" / "gn1d"


def _literal_assignments(path: Path, names: set[str]) -> dict:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }


def test_every_traced_target_resolves_in_gn1d():
    lists = _literal_assignments(WORKER, {"TARGETS", "STEP_COUNTER"})
    assert set(lists) == {"TARGETS", "STEP_COUNTER"}
    targets = lists["TARGETS"] + lists["STEP_COUNTER"]
    assert targets
    missing = []
    for module, name, _label in targets:
        assert module.split(".")[0] == "gn1d", module
        if not callable(getattr(importlib.import_module(module), name, None)):
            missing.append(f"{module}.{name}")
    assert missing == []


# traced targets of the linear-path modules that a Picard solve does not reach
OFF_THE_PICARD_PATH = {
    "gn1d.gn_rhs.nonlinear_rhs": "the tendency of nonlinear mode",
    "gn1d.gn_rhs.q_total": "the dispersive source of nonlinear mode",
}


def test_a_picard_solve_calls_every_traced_linear_path_target():
    modules = {"gn1d.gn_rhs", "gn1d.t_operator", "gn1d.linearized"}
    targets = [t for t in _literal_assignments(WORKER, {"TARGETS"})["TARGETS"] if t[0] in modules]
    expected = {f"{module}.{name}" for module, name, _label in targets}
    assert set(OFF_THE_PICARD_PATH) <= expected
    expected -= set(OFF_THE_PICARD_PATH)

    spec = importlib.util.spec_from_file_location("perfbench_tracer", WORKER.with_name("tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    grid = Grid(32, 2.0 * np.pi)
    hump = gaussian_hump(0.3, 0.5, grid)
    control = StepControl(t_end=0.02, dt_max=0.01)
    linearized = importlib.import_module("gn1d.linearized")
    counter = tracer.CallCounter(targets)
    try:
        # once plain and once mollified, so the cutoff's own targets are reached
        for mollifier in (None, linearized.Mollifier.for_grid(0.5, grid)):
            linearized.picard_solve(
                hump, Bathymetry.flat(grid), Parameters(0.2, 0.5, h0=0.4), grid, control,
                max_iters=2, mollifier=mollifier,
            )
    finally:
        counter.restore()
    labels = {label: f"{module}.{name}" for module, name, label in targets}
    called = {labels[label] for label, calls in counter.counts.items() if calls > 0}
    assert counter.missing == set()
    assert sorted(expected - called) == []


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py, loaded as it is; the sibling modules it imports
    through its own sys.path entry are dropped again afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in {"reference", "tracer", "workloads"} - before:
        sys.modules.pop(name, None)


# tiny runs of the benchmark's workloads: config keys over the workload's own
TINY_WORKLOADS = {
    "solitary": {"n": 128, "length": 60.0, "t_end": 0.5},
    "picard": {
        "n": 128, "length": 120.0, "amplitude": 0.1, "h0": 0.4, "dt_max": 0.005, "t_end": 0.03,
    },
}


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
def test_a_tiny_benchmark_run_keeps_the_exact_count_rules(tmp_path, capsys, worker, workload):
    workloads = sys.modules[worker.check.__module__]
    cfg = {**getattr(workloads, workload.upper()), **TINY_WORKLOADS[workload]}
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "".join(f"{k} = {v}\n" for k, v in {**cfg, "output_dir": out}.items()), encoding="utf-8"
    )
    # TARGETS alone: STEP_COUNTER repeats rk4_step, so adding it counts each step twice
    counter = worker.CallCounter(worker.TARGETS)
    try:
        code = gn1d.cli.main(["run", "--config", str(cfg_path)])
    finally:
        counter.restore()
    res = worker.check(workload, code, capsys.readouterr().out, str(out), cfg["t_end"])
    assert res["ok"], res
    assert counter.missing == set()
    assert counter.counts["t_operator.assemble"] > 0
    summary = {label: {"calls": calls} for label, calls in counter.counts.items()}
    assert worker.cross_check(workload, res, summary, counter.missing) == []


def test_paired_bench_finds_no_difference_between_a_checkout_and_itself():
    path = ROOT / "tools" / "paired_bench.py"
    spec = importlib.util.spec_from_file_location("paired_bench", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    workloads = {name: {**tool.WORKLOADS[name], **TINY_WORKLOADS[name]} for name in tool.WORKLOADS}
    sides = ("gn1d_a", "gn1d_b")
    try:
        lines = tool.compare(*(tool.load_cli(ROOT, side) for side in sides), 2, workloads)
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] in sides]:
            del sys.modules[name]
    assert lines[0] == tool.HEADER
    rows = [dict(zip(tool.HEADER.split(), line.split(), strict=True)) for line in lines[1:]]
    assert [row.pop("workload") for row in rows] == list(workloads)
    for row in rows:
        values = {key: float(value) for key, value in row.items()}
        assert values["pairs"] == 2 and values["A_won"] + values["B_won"] <= 2
        assert all(values[key] > 0.0 for key in row if key.endswith("_s"))
        assert 0.0 < values["sign_p"] <= 1.0
        assert values["max_abs_diff"] == 0.0
    # 17 of 20 pairs is the fewest that a two-sided p < 0.01 needs
    assert (tool.sign_test(0, 0), tool.sign_test(2, 0)) == (1.0, 0.5)
    assert tool.sign_test(17, 3) < 0.01 < tool.sign_test(16, 4)


def _readme_config_rows() -> list[str]:
    """The rows of the README's config table, in order."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("| `"):
            break
        rows.append(line)
    return rows


def test_readme_config_table_lists_every_run_config_field_in_order():
    keys = [row.split("`")[1] for row in _readme_config_rows()]
    assert keys == [f.name for f in fields(RunConfig)]


def test_every_run_config_field_is_read_by_a_run():
    # RunConfig is the config of `gn1d run` alone: each field is read as
    # cfg.<field> or prep.cfg.<field> somewhere in cli.py
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if getattr(owner, "id", None) == "cfg" or getattr(owner, "attr", None) == "cfg":
            read.add(node.attr)
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []


def test_readme_scenario_row_names_every_scenario():
    row = next(row for row in _readme_config_rows() if row.startswith("| `scenario` |"))
    meaning = row.split("|")[3]
    assert sorted(re.findall(r"`([^`]+)`", meaning)) == sorted(SCENARIOS)


def _readme_statuses() -> list[str]:
    """The statuses of the README's table of outcomes, in order."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| status | modes that end with it | exit code |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("| `"):
            break
        rows.append(line.split("`")[1])
    return rows


def _stop_error_statuses() -> dict:
    statuses, pending = {}, gn1d.StopError.__subclasses__()
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        statuses[cls.__qualname__] = getattr(cls, "status", None)
    return statuses


def test_every_stop_error_carries_a_run_status():
    # a march ends on any StopError with the status the error declares
    statuses = _stop_error_statuses()
    assert len(statuses) >= 4
    allowed = set(_readme_statuses()) - {"completed"}
    assert {name: status for name, status in statuses.items() if status not in allowed} == {}


def test_readme_outcome_table_lists_every_status_a_march_ends_with():
    # a march ends with a StopError's status or with one it names itself,
    # as the first argument of RunOutcome(...) or as replace(..., status=...)
    named = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) == "RunOutcome" and node.args:
                named.add(node.args[0])
            named.update(k.value for k in node.keywords if k.arg == "status")
    literals = {n.value for n in named if isinstance(n, ast.Constant)}
    assert {"completed", "not_converged"} <= literals
    table = _readme_statuses()
    assert len(table) == len(set(table))
    assert set(table) == literals | set(_stop_error_statuses().values())


def test_every_package_export_is_imported_from_gn1d():
    # by a test, by a tool (tools/ or perfbench/), or by a README example
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = set()
    for folder in ("tests", "tools", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "gn1d" and not node.level:
                    used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gn1d":
                    used.add(node.attr)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for names in re.findall(r"^from gn1d import (.+)$", readme, re.MULTILINE):
        used.update(name.strip() for name in names.split(","))
    assert [name for name in exported if name not in used] == []


def test_no_module_splits_or_restacks_a_state():
    split = re.compile(r"\bState\(\*")
    restack = re.compile(r"\(\s*[\w.\[\]]+\.zeta\s*,\s*[\w.\[\]]+\.u\s*[,)]")
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 11
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in modules
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if split.search(line) or restack.search(line)
    ]
    assert found == []


def test_only_core_raises_the_non_finite_stop_or_quiets_overflow():
    # core.require_finite is every march's finite test and core.quiet_overflow
    # the package's one numpy error state: no other call sets one, whatever its keywords
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("NonFiniteError", "errstate", "seterr"):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert [line for line in found if not line.startswith("core.py:")] == []
    assert sorted(line.split(": ")[1] for line in found) == ["NonFiniteError", "errstate"]


def test_every_march_enters_through_require_march_alone():
    functions, texts = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                functions[f"{path.stem}.{node.name}"] = node
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts += [(path.stem, node.lineno, text) for text in (
                    "does not exceed the start", "nodes, the grid") if text in node.value]
    calls = {
        name: sum(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_march"
            for node in ast.walk(functions[name])
        )
        for name in ("time_integrator.run", "linearized.solve_linear", "linearized.picard_solve")
    }
    assert set(calls.values()) == {1}
    entry = functions["time_integrator.require_march"]
    outside = [
        (module, line, text) for module, line, text in texts
        if not (module == "time_integrator" and entry.lineno <= line <= entry.end_lineno)
    ]
    assert len(texts) == 2 and outside == []


def _unused_imports(path: Path) -> list[str]:
    """`file:line: name` for every imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports its names only to export them
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 10
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert len(tests) >= 10
    assert [line for path in modules + tests for line in _unused_imports(path)] == []


def _output_digest():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_hashes_every_output_of_a_case():
    tool = _output_digest()
    lines = tool.digest_case("hump_depth_loss")
    names = [line.split(" ")[1] for line in lines]
    outputs = [f"snap_{step:06d}.dat" for step in range(40)] + ["timeseries.dat"]
    assert names == [f"hump_depth_loss/{name}" for name in ["stdout", "stderr", "exit"]] + [
        f"hump_depth_loss/out/{name}" for name in outputs
    ]
    assert lines[2].split(" ")[0] == hashlib.sha256(b"1").hexdigest()
    stop = (
        "blowup_depth: depth condition violated: min depth 0.943215 at grid index 32 "
        "(t = 3.26234, RK stage 4)\n"
    )
    assert lines[1].split(" ")[0] == hashlib.sha256(stop.encode()).hexdigest()
    # a rerun in a fresh directory reproduces every byte
    assert tool.digest_case("hump_depth_loss") == lines


def test_output_digest_records_an_argv_that_argparse_rejects(capsys):
    # `run` without --config: argparse prints its usage and exits 2, and
    # the digest records that as the case's stderr and exit, then goes on
    tool = _output_digest()
    tool.CASES["no_config"] = ("run", None)
    lines = tool.digest_case("no_config")
    assert [line.split(" ")[1] for line in lines] == [
        f"no_config/{name}" for name in ["stdout", "stderr", "exit"]
    ]
    with pytest.raises(SystemExit):
        gn1d.cli.main(["run"])
    usage = capsys.readouterr().err
    assert usage.startswith("usage: gn1d run")
    assert [line.split(" ")[0] for line in lines] == [
        hashlib.sha256(text.encode()).hexdigest() for text in ["", usage, "2"]
    ]


EXPECTED_DIGEST = ROOT / "tests" / "data" / "output_digest.txt"


def _environment() -> str:
    """numpy's and scipy's versions and BLAS builds, which the outputs' bytes
    depend on, as the committed digest's header names them."""
    import scipy

    def blas(config):
        build = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"(blas {build['name']} {build['version']})"

    return (
        f"numpy {np.__version__} {blas(np.show_config)}, "
        f"scipy {scipy.__version__} {blas(scipy.show_config)}"
    )


def test_output_digest_matches_the_committed_digest(monkeypatch, capsys):
    """tools/output_digest.py, run in-process from the repository root,
    prints tests/data/output_digest.txt line for line.  The bytes hold only
    for the environment that file's header names; elsewhere the test fails
    on that, and the file is to be regenerated with the tool."""
    header, want = [], []
    for line in EXPECTED_DIGEST.read_text(encoding="utf-8").splitlines():
        (header if line.startswith("#") else want).append(line)
    committed = next(line.split(": ", 1)[1] for line in header if line.startswith("# environment"))
    assert _environment() == committed, (
        f"the environment differs from the committed digest's ({committed}), so its bytes "
        "do not apply; regenerate tests/data/output_digest.txt with tools/output_digest.py"
    )
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src in front
    assert _output_digest().main() == 0
    got = capsys.readouterr().out.splitlines()
    was, now = ({label: sha for sha, label in (line.split(" ", 1) for line in lines)}
                for lines in (want, got))
    changed = [
        f"{label} ({'new' if label not in was else 'gone' if label not in now else 'changed'})"
        for label in sorted(was.keys() | now.keys())
        if was.get(label) != now.get(label)
    ]
    assert not changed, "outputs differ from the committed digest: " + ", ".join(changed)
    assert got == want


def _numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def test_every_guarantee_bound_is_read_through_a_name():
    # a bound is written once: in checks.BOUNDS, or in the acceptance
    # suite's own table when only that suite checks the guarantee
    path = ROOT / "tests" / "test_acceptance.py"
    acceptance = ast.parse(path.read_text(encoding="utf-8"))
    compares = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(acceptance)
        if isinstance(node, ast.Compare)
        and any(_numeric_literal(x) for x in [node.left, *node.comparators])
    ]
    checks = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    suite = next(
        node for node in checks.body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_suite"
    )
    rows = [
        node for node in ast.walk(suite)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check"
    ]
    assert len(rows) == 16  # the 15 rows of the table and the failed-assembly row
    thresholds = [
        f"checks.py:{row.lineno}"
        for row in rows
        if any(_numeric_literal(arg) for arg in row.args[2:] + [k.value for k in row.keywords])
    ]
    assert (compares, thresholds) == ([], [])
