"""Spans around the calls between phasepovm's layers.

The layers are the package modules. ``Tracer.installed`` replaces every
function a module imports from a sibling module (``cli.evaluate_netlist``,
``optics.validate_density``, ``naimark.povm_element``, ...) and
``cli.main`` itself with a wrapper that records one span per call, then
puts the original objects back. Calls inside one module are not split:
their time belongs to the calling layer. Nothing under ``src/`` changes.

A span is a list ``[name, layer, start, end, parent, op]``: times from
``time.perf_counter`` in seconds, ``parent`` the index of the enclosing
span (or None), ``op`` the id of the benchmark op it belongs to.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from types import FunctionType, ModuleType

LAYERS = ("cli", "povm", "naimark", "compiler", "optics", "numerics")

NAME, LAYER, START, END, PARENT, OP = range(6)

# Inclusive span time of these entry points is reported per op, by layer.
ENTRY_POINTS = {
    "naimark.build_closed_ms": ("build_extension_closed",),
    "naimark.build_recursive_ms": ("build_extension_recursive",),
    "naimark.verify_ms": ("verify_naimark",),
    "naimark.serialize_ms": ("extension_to_json_dict", "extension_to_csv"),
    "compiler.evaluate_ms": ("evaluate_netlist",),
    "compiler.eliminate_ms": ("decompose_by_elimination",),
    "optics.simulate_direct_ms": ("simulate_direct",),
    "optics.simulate_folded_ms": ("simulate_folded",),
}


class Tracer:
    """Records spans in memory; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package: ModuleType):
        """Wrap the cross-module names of ``package``; restore them on exit.

        On exit, raises RuntimeError if any attribute is not the very
        object it was before.
        """
        saved = []
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", "") or ""
                if (
                    isinstance(obj, FunctionType)
                    and origin.startswith(package.__name__ + ".")
                    and origin != module.__name__
                ):
                    saved.append((module, name, obj, origin.rsplit(".", 1)[1]))
            if layer == "cli":
                saved.append((module, "main", module.main, "cli"))
        try:
            for module, name, obj, origin in saved:
                setattr(module, name, self.wrap(obj, origin, name))
            yield [f"{m.__name__}.{n}" for m, n, _, _ in saved]
        finally:
            for module, name, obj, _ in saved:
                setattr(module, name, obj)
        changed = [f"{m.__name__}.{n}" for m, n, obj, _ in saved if getattr(m, n) is not obj]
        if changed:
            raise RuntimeError(f"attributes not restored after tracing: {changed}")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_length(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op layer figures from the spans of ``ops`` traced ops.

    ``<layer>.self_ms`` and ``<layer>.calls`` for every layer (cli's only
    span is cli.main), the inclusive times in ENTRY_POINTS, the number of
    evaluate_netlist calls, and ``optics.states``: simulator calls, one
    per state propagated.
    """
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_ms", "calls")}
    for span, self_s in zip(spans, self_times(spans)):
        out[f"{span[LAYER]}.self_ms"] += self_s * 1e3
        out[f"{span[LAYER]}.calls"] += 1
    by_name = defaultdict(lambda: [0.0, 0])
    for span in spans:
        by_name[span[NAME]][0] += (span[END] - span[START]) * 1e3
        by_name[span[NAME]][1] += 1
    for metric, names in ENTRY_POINTS.items():
        out[metric] = sum(by_name[n][0] for n in names)
    out["compiler.evaluate_calls"] = by_name["evaluate_netlist"][1]
    out["optics.states"] = by_name["simulate_direct"][1] + by_name["simulate_folded"][1]
    return {name: value / ops for name, value in out.items()}
