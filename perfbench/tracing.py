"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every module
of `oc_reason` that holds it, because the modules import these names
directly (`from .bcs import path_consistency`) and a call through any of
them must be seen. Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans
TRACED = (
    ("bcs", "path_consistency"),
    ("bcs", "enumerate_satisfying"),
    ("closedness", "is_max_closed"),
    ("closedness", "is_join_closed"),
    ("closedness", "orders_for_assumptions"),
    ("games", "find_isomorphisms"),
    ("assumptions", "oc_isomorphism"),
    ("assumptions", "build_assumption_bcs"),
    ("si", "decide_si"),
    ("si", "pareto_preference"),
    ("si", "find_any_si"),
    ("serialize", "load_bcs"),
    ("reductions", "csp_to_si_games"),
    ("cli", "main"),
)


class Tracer:
    """Records (name, start, end, parent, operation) per traced call.

    `operation` is the benchmark operation the call belongs to; the harness
    sets it before each timed operation (0 during set-up and warm-up).
    """

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, operation, result size]
        self.stack: list[int] = []
        self.operation = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.operation, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if isinstance(result, list):
                span[5] = len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every attribute of every loaded `oc_reason` module that
        holds a traced function; fails loudly if a function is missing."""
        import oc_reason  # noqa: F401  (loads every submodule)
        import oc_reason.cli  # noqa: F401
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "oc_reason" or n.startswith("oc_reason.")) and m is not None]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"oc_reason.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            rebound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"oc_reason.{module_name}.{fn_name} was not rebound")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "operation", "returned"],
                       "spans": self.spans}, fh)

    def layer_totals(self, first_operation: int) -> dict:
        """Per span name: calls, inclusive seconds (outermost span of that
        name only), self seconds (duration minus direct children) and the
        number of list items returned, over operations >= first_operation."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                       "self_s": 0.0, "returned": 0})
        for index, (name, start, end, parent, operation, returned) in enumerate(self.spans):
            if operation < first_operation:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["returned"] += returned or 0
            if not self._inside_same_name(index):
                entry["s"] += end - start
        return totals

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
