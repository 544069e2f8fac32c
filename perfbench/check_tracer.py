"""Self-check of the tracer against the gn1d sources of this checkout.

  python3 perfbench/check_tracer.py

Checks that every binding of a wrapped function is replaced and restored,
that private helpers are refused, that a vanished name reads null rather
than crashing, and that self times subtract child spans.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import gn1d  # noqa: E402
from gn1d import gn_rhs, linearized, t_operator  # noqa: E402
from tracer import SpanTracer, summarize  # noqa: E402
from worker import layer_metrics  # noqa: E402


def main() -> int:
    original = t_operator.assemble_T
    tracer = SpanTracer([("gn1d.t_operator", "assemble_T", "t_operator.assemble"),
                         ("gn1d.t_operator", "renamed_away", "t_operator.renamed_away")])
    checks = [
        ("copies made by from-imports are wrapped",
         gn_rhs.assemble_T is t_operator.assemble_T is linearized.assemble_T
         is gn1d.assemble_T is not original),
        ("a vanished name is recorded as missing", tracer.missing == {"t_operator.renamed_away"}),
    ]
    tracer.restore()
    checks.append(("restore puts every binding back",
                   gn_rhs.assemble_T is t_operator.assemble_T is gn1d.assemble_T is original))

    for private in ("_stage_tendency", "_truncated"):
        module = "gn1d.time_integrator" if private == "_stage_tendency" else "gn1d.linearized"
        try:
            SpanTracer([(module, private, private)]).restore()
            refused = False
        except ValueError:
            refused = True
        checks.append((f"private helper {private} is never wrapped", refused))

    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    s = summarize(spans)
    checks.append(("self time subtracts direct children only",
                   (s["a"]["self_s"], s["b"]["self_s"], s["c"]["self_s"], s["b"]["calls"])
                   == (6.0, 3.0, 1.0, 2)))

    info = {"summary": summarize(spans), "missing": ["t_operator.solve"], "self_coverage": 1.0,
            "max_residual": 0.0, "op_bytes": 0}
    layer = layer_metrics([({"ok": True, "wall_s": 10.0, "output_bytes": 0}, info)], [9.0])
    checks.append(("metrics of a missing span read null",
                   layer["t_operator.solve.calls"]["value"] is None
                   and layer["t_operator.assemble.calls"]["value"] == 0))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
