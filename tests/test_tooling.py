"""The benchmark's tracer targets must name functions that exist in gn1d.

perfbench/worker.py lists (module, public name, span label) triples that
its tracer wraps.  The tracer reports a name that has gone as null rather
than failing, so a rename would silently blind the per-layer metrics;
this test makes it fail here instead.  The lists are read with ast, so
the worker is never imported.
"""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


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
