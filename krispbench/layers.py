"""Per-layer tracing installed from outside the program.

The benchmark never edits ``src/``: a traced repetition wraps the public
entry point of each layer (a class method or a module function) for the
duration of one repetition and restores the originals afterwards.

Two kinds of wrapper:

* a *span* records ``(name, start, end, parent)`` for every call, kept
  in memory.  A span's self time is its duration minus the time its
  child spans cover; every layer's self time plus the ``other``
  remainder adds up to the traced wall time exactly.
* a *count* only increments a counter.  It is used for entry points
  called hundreds of thousands of times per run (``Simulator.schedule``
  and the per-CU counter updates), where timing each call would cost
  more than the call.

Wrappers pass arguments and return values through untouched, so a
traced repetition must reproduce the untraced output hashes bit for bit
(the benchmark checks this on every traced repetition).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["SPAN_TARGETS", "COUNT_TARGETS", "SPAN_LAYERS", "Tracer",
           "installed", "capture_setups"]

#: Timed layer boundaries: (layer name, module, attribute path).  An
#: attribute path ``Class.method`` wraps the method on the class; a bare
#: name wraps a module function in every module that imported it.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("server.run", "repro.server.experiment", "run_experiment"),
    ("server.build", "repro.server.setup", "ServingSetup.build"),
    ("server.profile", "repro.server.profiles", "model_right_size"),
    ("server.profile", "repro.server.profiles", "model_database"),
    ("server.profile", "repro.server.profiles", "combined_database"),
    ("cluster.run", "repro.cluster.experiment", "run_cluster_experiment"),
    ("cluster.build", "repro.cluster.setup", "ClusterSetup.build"),
    ("cluster.route", "repro.cluster.router", "ClusterRouter.route"),
    ("workload.load", "repro.workload.spec", "load_workload"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("gpu.launch", "repro.gpu.device", "GpuDevice.launch"),
    ("core.alloc", "repro.core.krisp", "KrispAllocator.allocate"),
    ("core.alloc", "repro.core.pools", "PooledMaskAllocator.allocate"),
    ("core.rightsize", "repro.core.rightsizing", "KernelRightSizer.__call__"),
    ("obs.sample", "repro.obs.sampler", "SimSampler.sample"),
    *(("obs.flight", "repro.obs.flight", f"FlightRecorder.{hook}")
      for hook in ("request_arrival", "request_enqueued",
                   "request_dequeued", "service_phase",
                   "request_completed", "request_shed", "request_requeued",
                   "worker_crashed", "kernel_launched", "kernel_retired")),
    ("obs.attribution", "repro.obs.attribution", "summarize"),
    ("exp.sweep", "repro.exp.sweep", "run_sweep"),
    ("exp.cache.get", "repro.exp.cache", "ResultCache.get"),
    ("exp.cache.put", "repro.exp.cache", "ResultCache.put"),
    ("exp.serialise", "repro.exp.cache", "result_to_dict"),
    ("exp.serialise", "repro.exp.cache", "result_from_dict"),
)

#: Counted-only boundaries (too hot to time per call).
COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim.schedule", "repro.sim.engine", "Simulator.schedule"),
    ("gpu.counters", "repro.gpu.counters", "CUKernelCounters.assign"),
    ("gpu.counters", "repro.gpu.counters", "CUKernelCounters.release"),
)

#: Every span layer name, in report order.
SPAN_LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    name for name, _module, _attr in SPAN_TARGETS))


class Tracer:
    """In-memory span and count recorder for one traced phase."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in call order.
        self.spans: list[Any] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1])

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- reports ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: duration minus child-span coverage."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _parent), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def calls(self) -> Counter:
        """Calls per layer (spans and counted entry points)."""
        calls = Counter(name for name, *_ in self.spans)
        calls.update(self.counts)
        return calls

    def covered_s(self) -> float:
        """Wall time inside root spans (= the sum of every self time)."""
        return sum(end - start for _name, start, end, parent in self.spans
                   if parent < 0)

    def to_json(self) -> dict[str, Any]:
        """Spans and counts in a JSON-native form for the trace file."""
        return {"spans": [list(span) for span in self.spans],
                "counts": dict(self.counts)}


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable],
           undo: list) -> None:
    """Replace ``owner.attr`` by ``make(original)``; record the undo.

    Class attributes are patched on the class (keeping ``classmethod``
    descriptors); a module function is patched in every loaded module
    that holds the same object, because ``from m import f`` copies the
    reference into the importer's namespace.
    """
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, wrapped)
                undo.append((module, name, original))


def _restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    undo: list = []
    try:
        for name, module, path in SPAN_TARGETS:
            owner, attr = _resolve(module, path)
            _patch(owner, attr,
                   lambda fn, name=name: tracer.span(name, fn), undo)
        for name, module, path in COUNT_TARGETS:
            owner, attr = _resolve(module, path)
            _patch(owner, attr,
                   lambda fn, name=name: tracer.count(name, fn), undo)
        yield tracer
    finally:
        _restore(undo)


@contextmanager
def capture_setups() -> Iterator[list]:
    """Collect every :class:`ServingSetup` built inside the block.

    Fleet nodes are ``ServingSetup`` builds too, so this reaches every
    simulated device a workload touches; the benchmark audits them after
    the clock stops.  Installed on traced and untraced repetitions alike.
    """
    from repro.server.setup import ServingSetup

    built: list = []

    def capturing(build: Callable) -> Callable:
        def capture(cls, *args, **kwargs):
            setup = build(cls, *args, **kwargs)
            built.append(setup)
            return setup
        return capture

    undo: list = []
    _patch(ServingSetup, "build", capturing, undo)
    try:
        yield built
    finally:
        _restore(undo)
