"""Names that tooling and docs take from gn1d must still match gn1d.

The benchmark's tracer targets must name functions that exist in gn1d:
perfbench/worker.py lists (module, public name, span label) triples that
its tracer wraps.  The tracer reports a name that has gone as null rather
than failing, so a rename would silently blind the per-layer metrics;
this test makes it fail here instead.  The lists are read with ast, so
the worker is never imported.  The README's config table must list the
RunConfig fields, in order, so the documented keys cannot drift.  No
module of gn1d or of its tests may import a name it never uses, so a
deletion cannot leave a stale import behind (checked with ast; no
linter is needed).
"""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

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


def test_readme_config_table_lists_every_run_config_field_in_order():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |")
    keys = []
    for line in lines[start + 2:]:
        if not line.startswith("| `"):
            break
        keys.append(line.split("`")[1])
    assert keys == [f.name for f in fields(RunConfig)]


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
