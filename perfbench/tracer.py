"""In-memory span tracer that wraps gn1d's public functions from outside.

A target is named by its defining module and attribute.  Installing it
replaces the function at *every* ``gn1d`` / ``gn1d.*`` module attribute
bound to the same object, so copies made by ``from .t_operator import
assemble_T`` are caught as well as the original.  Targets that no longer
exist are recorded as missing (their metrics report null); names that
start with an underscore are private helpers and are never wrapped.

Each span is (name, start, end, parent index); spans stay in memory until
the benchmark writes them out.  A span's self time is its duration minus
the durations of its direct children (calls are synchronous, so children
nest strictly inside their parent).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def gn1d_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gn1d" or name.startswith("gn1d."))]


class _Patcher:
    """Replaces function objects at every gn1d binding and puts them back."""

    def __init__(self):
        self._undo = []
        self.missing: set[str] = set()

    def patch(self, targets, make_wrapper) -> None:
        modules = gn1d_modules()
        for module_name, attr, label in targets:
            if attr.startswith("_"):
                raise ValueError(f"refusing to wrap private helper {module_name}.{attr}")
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.missing.add(label)
                continue
            wrapper = make_wrapper(label, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def restore(self) -> None:
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()


class CallCounter(_Patcher):
    """Counts calls only; cheap enough for the untimed-overhead runs."""

    def __init__(self, targets):
        super().__init__()
        self.counts: Counter[str] = Counter()
        counts = self.counts

        def make(label, fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted

        self.patch(targets, make)


class SpanTracer(_Patcher):
    """Records one span per call of every wrapped function.

    ``hooks`` maps a label to ``hook(args, result)``, run after that
    function's span closes.  Hook time is recorded under its own span,
    ``trace.hook``, so it never inflates a gn1d layer's self time.
    ``counted`` is a list of (object, attribute, label) whose calls are
    counted without spans, for very hot leaf calls such as the FFTs.
    """

    def __init__(self, targets, hooks=None, counted=()):
        super().__init__()
        self.spans: list = []
        self.counts: Counter[str] = Counter()
        spans, stack, hooks = self.spans, [], hooks or {}
        clock = time.perf_counter

        def make(label, fn):
            hook = hooks.get(label)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    return_value = fn(*args, **kwargs)
                finally:
                    spans[idx] = (label, start, clock(), parent)
                    stack.pop()
                if hook is not None:
                    h_idx = len(spans)
                    spans.append(None)
                    h_start = clock()
                    hook(args, return_value)
                    spans[h_idx] = ("trace.hook", h_start, clock(), parent)
                return return_value
            return traced

        self.patch(targets, make)
        counts = self.counts
        for obj, attr, label in counted:
            fn = getattr(obj, attr)

            def counted_fn(*args, _fn=fn, _label=label, **kwargs):
                counts[_label] += 1
                return _fn(*args, **kwargs)

            setattr(obj, attr, counted_fn)
            self._undo.append((obj, attr, fn))


def summarize(spans) -> dict[str, dict]:
    """Per-label call count, total self time and the list of call durations."""
    child = [0.0] * len(spans)
    for label, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (label, start, end, parent) in enumerate(spans):
        rec = out.setdefault(label, {"calls": 0, "self_s": 0.0, "durations": []})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
        rec["durations"].append(end - start)
    return out
