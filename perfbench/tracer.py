"""Spans around the public functions of the library's layers, installed from
outside the library.

Every public function defined in a layer module is replaced, at every import
site inside the ``liaison`` package (for example both
``liaison.groebner.buchberger`` and ``liaison.ideals.buchberger``), by one
wrapper that records a span: name, start, end, parent span.  Spans stay in
memory and are summarised when tracing ends; the originals are restored.

``polynomials``, ``rings`` and ``linalg`` are not wrapped: wrapping per-term
arithmetic would swamp the numbers, so their cost lands in the self time of
the calling layer.  Functions captured in closures or tables at import time
(such as the binary commands in ``liaison.cli._COMMANDS``) are not import
sites and stay unwrapped.
"""

import functools
import inspect
import sys
from time import perf_counter

# prefix of the stderr line on which a traced CLI process reports its spans
SPANS_MARKER = "perfbench-spans "

LAYERS = ("groebner", "ideals", "localrings", "linkage", "doublelines", "sessions", "cli")


def _buchberger_info(args, kwargs, result):
    """The input as (ring, order, generator set): equal inputs give equal
    reduced bases, so a repeated input is a call a memo could save."""
    gens = list(args[0] if args else kwargs["gens"])
    order = args[1] if len(args) > 1 else kwargs.get("order")
    ring = gens[0].ring if gens else None
    return {"input": (ring, order if order is not None else getattr(ring, "order", None), frozenset(gens))}


def _artinian_reduce_info(args, kwargs, result):
    Q, forms = result
    return {"inconclusive": int(Q is None), "forms": len(forms)}


def _oracle_info(args, kwargs, result):
    return {"points_tested": len(result[1])}


# facts recorded per call, keyed by span name and computed from the arguments
# and result after the span's end time is taken; summary() adds them up,
# except "input", which it turns into a count of repeated inputs
INFO = {
    "groebner.buchberger": _buchberger_info,
    "localrings.artinian_reduce": _artinian_reduce_info,
    "doublelines.oracle_lal": _oracle_info,
}


class Tracer:
    """Context manager: wraps the layers on entry, restores them on exit."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, facts from INFO)
        self._stack = []
        self._patched = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"liaison.{layer}")
            if module is None:
                continue
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "liaison" and not mod_name.startswith("liaison."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info is not None and result is not None else None
                spans[index] = (name, start, end, parent, extra)

        return traced

    def summary(self):
        """Per-function calls, total and self seconds, and recorded facts.

        A span's self time is its duration minus the durations of its direct
        children; children nest inside their parent, so that is the part of
        the parent's interval they cover.  ``toplevel_s`` sums the spans
        without a parent, which equals the sum of all self times.
        """
        child_time = [0.0] * len(self.spans)
        toplevel = 0.0
        for name, start, end, parent, _extra in self.spans:
            if parent < 0:
                toplevel += end - start
            else:
                child_time[parent] += end - start
        functions = {}
        seen = {}
        for index, (name, start, end, parent, extra) in enumerate(self.spans):
            stats = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["total_s"] += end - start
            stats["self_s"] += end - start - child_time[index]
            for key, value in (extra or {}).items():
                if key == "input":
                    inputs = seen.setdefault(name, set())
                    stats["repeats"] = stats.get("repeats", 0) + (value in inputs)
                    inputs.add(value)
                else:
                    stats[key] = stats.get(key, 0) + value
        return {"functions": functions, "toplevel_s": toplevel}


def merge(summaries):
    """Sum several summaries (one per traced CLI process)."""
    out = {"functions": {}, "toplevel_s": 0.0}
    for s in summaries:
        out["toplevel_s"] += s["toplevel_s"]
        for name, stats in s["functions"].items():
            into = out["functions"].setdefault(name, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return out
