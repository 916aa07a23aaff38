"""Outside-in tracing: spans around fxnet's public functions, from the
benchmark's side.

`Tracer.patched()` replaces every public function of the traced fxnet modules
with a wrapper that records a span (name, start, end, parent) and restores the
originals on exit.  fxnet calls across and within its modules through module
attributes, so the wrappers see those calls too.  Spans stay in memory; a
layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

from spec import CLI_COMMANDS, GROUPED_FUNCTIONS, NAMED_FUNCTIONS

TRACED_MODULES = tuple(NAMED_FUNCTIONS)  # fxnet submodules, by name
ROOT = "job"

_GROUP_OF = {f"{metric.split('.')[0]}.{fn}": metric
             for metric, fns in GROUPED_FUNCTIONS.items() for fn in fns}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.observed: list[tuple] = []  # (name, summary of the result)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, summarize):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if summarize is not None:
                self.observed.append((name, summarize(result)))
            return result

        return wrapper

    @contextmanager
    def patched(self, package, observe=None):
        """Wrap the public functions of `package`'s traced submodules.

        `observe` maps a span name to `summarize(result)`, whose small return
        value is kept in `observed` after each call of that function.
        """
        observe = observe or {}
        saved = []
        try:
            for mod_name in TRACED_MODULES:
                mod = getattr(package, mod_name)
                for attr, obj in list(vars(mod).items()):
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == mod.__name__):
                        name = f"{mod_name}.{attr}"
                        saved.append((mod, attr, obj))
                        setattr(mod, attr, self._wrap(name, obj, observe.get(name)))
            yield self
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def bucket(name: str) -> str:
    """The per-layer metric a span's self time is added to.

    Every span lands in exactly one bucket, so the buckets sum to the job time.
    """
    if name == ROOT:
        return "trace.harness_s"
    layer, fn = name.split(".", 1)
    if layer == "cli":
        return f"cli.{fn}.s"
    if name in _GROUP_OF:
        return _GROUP_OF[name]
    if name == "report.run_pipeline":
        return "report.run_pipeline.self_s"
    if fn in NAMED_FUNCTIONS.get(layer, ()):
        return f"{name}.s"
    return f"{layer}.other.s"


def job_profile(spans: list[list]) -> dict:
    """Self time per bucket, inclusive time and call count per span name."""
    selfs = self_times(spans)
    buckets: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    open_names: list[str] = []  # names of the ancestors of the current span
    ancestors: list[int] = []
    for idx, ((name, start, end, parent), own) in enumerate(zip(spans, selfs)):
        while ancestors and ancestors[-1] != parent:
            ancestors.pop()
            open_names.pop()
        b = bucket(name)
        buckets[b] = buckets.get(b, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name not in open_names:  # count recursive calls once
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        ancestors.append(idx)
        open_names.append(name)
    return {"buckets": buckets, "inclusive": inclusive, "calls": calls}


def partition_metrics() -> list[str]:
    """Every bucket name a job can produce, for reporting zeros."""
    names = ["trace.harness_s", "report.run_pipeline.self_s"]
    names += [f"cli.{c}.s" for c in CLI_COMMANDS]
    names += list(GROUPED_FUNCTIONS)
    for layer, fns in NAMED_FUNCTIONS.items():
        names += [f"{layer}.{fn}.s" for fn in fns]
        names.append(f"{layer}.other.s")
    return names
