"""Span tracing around the library's layer functions, for the traced run.

The tracer replaces each target function at every module global of the
package that names it (and ``Instance.from_rows`` on its class) with a
wrapper that records one span per call: target, start, end, parent span,
corpus instance and a per-target flag. Spans stay in memory until the
run ends. Nothing is patched outside ``Tracer.installed()``, and leaving
it restores the original objects.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (metric prefix, module, attribute); "Instance.from_rows" is a classmethod.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("instances.from_rows", "instances", "Instance.from_rows"),
    ("instances.ordered_instance", "instances", "ordered_instance"),
    ("instances.lift_allocation", "instances", "lift_allocation"),
    ("solvers.search_threshold", "solvers", "search_threshold"),
    ("solvers.threshold_test", "solvers", "threshold_test"),
    ("solvers.naive_test", "solvers", "naive_test"),
    ("solvers.solve_poly_54", "solvers", "solve_poly_54"),
    ("solvers.solve_existence_119", "solvers", "solve_existence_119"),
    ("greedy.greedy_fill", "greedy", "greedy_fill"),
    ("oracle.exact_mms", "oracle", "exact_mms"),
    ("oracle.mms_profile", "oracle", "mms_profile"),
    ("scheduling.schedule_119", "scheduling", "schedule_119"),
    ("scheduling.schedule_lpt", "scheduling", "schedule_lpt"),
)

# Share of flagged calls, per target: threshold tests that passed, greedy
# runs that placed every chore, and oracle calls whose (sorted row, n)
# was already solved within the same solver call.
FLAG_RATIOS = {
    "solvers.threshold_test": "pass_ratio",
    "greedy.greedy_fill": "complete_ratio",
    "oracle.exact_mms": "repeat_row_ratio",
}

FIELDS = ("target", "start_ns", "end_ns", "parent", "instance", "flag")
TARGET, START, END, PARENT, INSTANCE, FLAG = range(len(FIELDS))


def layer_metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    units = []
    for prefix, _, _ in TARGETS:
        units += [(f"{prefix}.self_ms", "ms/op"), (f"{prefix}.calls", "calls/op")]
    units += [(f"{prefix}.{ratio}", "ratio") for prefix, ratio in FLAG_RATIOS.items()]
    return units + [("trace.overhead_pct", "%")]


def bindings(package) -> List[Tuple[int, Any, str, Any]]:
    """(target index, owner, attribute, original) for every binding of a target."""
    prefix = package.__name__ + "."
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package.__name__ or name.startswith(prefix))
    ]
    found = []
    for index, (_, module_name, attr) in enumerate(TARGETS):
        module = getattr(package, module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            found.append((index, cls, method, cls.__dict__[method]))
            continue
        original = getattr(module, attr)
        for owner in modules:
            for name, value in vars(owner).items():
                if value is original:
                    found.append((index, owner, name, original))
    return found


class Tracer:
    """Records spans of the target functions while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: List[Optional[tuple]] = []
        self.instance = -1
        self._stack: List[int] = []
        self._seen_rows: set = set()

    def begin(self, instance: int) -> None:
        """Mark the start of one solver call on corpus entry ``instance``."""
        self.instance = instance
        self._seen_rows = set()

    def _repeat_row(self, args, kwargs) -> bool:
        inst = args[0] if args else kwargs["inst"]
        agent = args[1] if len(args) > 1 else kwargs["agent"]
        key = (tuple(sorted(inst.valuations[agent])), inst.num_agents)
        repeat = key in self._seen_rows
        self._seen_rows.add(key)
        return repeat

    def _wrap(self, index: int, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        prefix = TARGETS[index][0]
        before = self._repeat_row if prefix == "oracle.exact_mms" else None
        after: Optional[Callable] = {
            "solvers.threshold_test": lambda result: result.passed,
            "greedy.greedy_fill": lambda result: result.allocation.complete,
        }.get(prefix)

        def traced(*args, **kwargs):
            flag = before(args, kwargs) if before else None
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.instance, flag)
            if after:
                spans[slot] = (index, start, end, parent, self.instance, after(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patched: List[Tuple[Any, str, Any]] = []
        wrappers: Dict[int, Any] = {}
        try:
            for index, owner, name, original in bindings(self.package):
                if index not in wrappers:
                    if isinstance(original, classmethod):
                        wrappers[index] = classmethod(self._wrap(index, original.__func__))
                    else:
                        wrappers[index] = self._wrap(index, original)
                setattr(owner, name, wrappers[index])
                patched.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def summary(self, ops: int, scale: Callable[[int], float]) -> Dict[str, float]:
        """Per-layer metrics, normalised per timed solver call.

        Self time is a span's duration minus the time its direct child
        spans cover; calls are single-threaded, so children never overlap.
        ``scale(start_ns)`` rescales a span's self time to reference speed.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        self_ns = [0] * len(TARGETS)
        calls = [0] * len(TARGETS)
        flagged = [0] * len(TARGETS)
        for span, covered in zip(spans, child_ns):
            t = span[TARGET]
            self_ns[t] += (span[END] - span[START] - covered) * scale(span[START])
            calls[t] += 1
            flagged[t] += bool(span[FLAG])
        metrics: Dict[str, float] = {}
        for t, (prefix, _, _) in enumerate(TARGETS):
            metrics[f"{prefix}.self_ms"] = self_ns[t] / 1e6 / ops
            metrics[f"{prefix}.calls"] = calls[t] / ops
        for t, (prefix, _, _) in enumerate(TARGETS):
            if prefix in FLAG_RATIOS:
                ratio = flagged[t] / calls[t] if calls[t] else 0.0
                metrics[f"{prefix}.{FLAG_RATIOS[prefix]}"] = ratio
        return metrics

    def write(self, path: Path) -> None:
        """Write every recorded span to ``path`` as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "targets": [prefix for prefix, _, _ in TARGETS],
            "fields": FIELDS,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
