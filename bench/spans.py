"""In-memory span recorder and the wrappers the traced benchmark installs.

A *span* is one call into a layer: name, start, end and the id of the
span that was open when it started (its parent).  Calls that happen once
or a few times per run (dataset generation, a clustering run, an index
build) are kept as individual spans.  Calls made per reading or per query
(``HOT`` names) are aggregated instead: count, busy time, self time and
the list of durations, so a 30,000-reading stream does not allocate
30,000 span records.

Self time is a span's duration minus the time its child spans cover.
Children of one span never overlap (the wrapped code is single-threaded
and every synchronous span closes before its parent does), so the
covered time is the sum of the children's durations.  Coroutine calls
(``Broker.publish``) are timed from call to completion and kept off the
span stack, because other tasks run while they wait.

A repeated name nested inside itself (``ArrayNetwork.__init__`` calling
``Network.__init__`` through ``super()``) counts once: only the
outermost call is recorded.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable

from stats import percentile

#: Span names aggregated per call instead of stored one by one.
HOT = frozenset(
    {
        "sim.network.route",
        "serve.pipeline.apply",
        "serve.pipeline.coverage",
        "models.rls.update",
        "core.maintenance.update",
        "serve.broker.publish",
        "queries.range",
        "queries.knn",
        "queries.path",
    }
)

#: (module, attribute path, span name): the public functions and methods
#: a traced run wraps.  Module attributes are patched where the *caller*
#: looks them up, so a function imported by name into another module is
#: listed under that module.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.datasets.synthetic", "random_geometric_topology", "geometry.topology.generate"),
    ("repro.serve.readings", "random_geometric_topology", "geometry.topology.generate"),
    ("repro.datasets.death_valley", "scatter_topology", "geometry.topology.generate"),
    ("repro.datasets.synthetic", "generate_synthetic_dataset", "datasets.synthetic.generate"),
    ("repro.datasets.death_valley", "generate_death_valley_dataset", "datasets.death_valley.generate"),
    ("repro.serve.readings", "ReplayStream.__init__", "serve.readings.stream"),
    ("repro.geometry.quadtree", "QuadTreeDecomposition.__init__", "geometry.quadtree.build"),
    ("repro.sim.network", "Network.__init__", "sim.network.build"),
    ("repro.sim.network", "Network.route", "sim.network.route"),
    ("repro.sim.faults", "FaultPlan.random", "sim.faults.plan"),
    ("repro.core.elink", "run_elink", "core.elink.run"),
    ("repro.core.elink_vec", "try_run_vectorized", "core.elink_vec.run"),
    ("repro.index.mtree", "build_mtree", "index.mtree.build"),
    ("repro.index.backbone", "build_backbone", "index.backbone.build"),
    ("repro.queries.planner", "QueryPlanner.__init__", "queries.planner.build"),
    ("repro.serve.pipeline", "run_spanning_forest", "baselines.spanning_forest.bootstrap"),
    ("repro.serve.pipeline", "ClusteringPipeline.apply", "serve.pipeline.apply"),
    ("repro.serve.pipeline", "ClusteringPipeline.coverage", "serve.pipeline.coverage"),
    ("repro.models.rls", "RecursiveLeastSquares.update", "models.rls.update"),
    ("repro.core.maintenance", "MaintenanceSession.update_feature", "core.maintenance.update"),
    ("repro.serve.broker", "Broker.publish", "serve.broker.publish"),
)


class _Frame:
    __slots__ = ("name", "span_id", "start", "child")

    def __init__(self, name: str, span_id: int, start: float):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child = 0.0


class Recorder:
    """Collects spans and per-name aggregates for one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: name -> [count, busy_s, self_s, durations]
        self.hot: dict[str, list] = {}
        #: name -> number of intercepted calls (every name, hot or not).
        self.calls: dict[str, int] = {}
        self.flags: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = {}
        self._next_id = 1
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named *name*."""
        if self._open.get(name):
            yield
            return
        self._open[name] = self._open.get(name, 0) + 1
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(name, self._next_id, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - frame.start
            if parent is not None:
                parent.child += duration
            self._close(name, frame, parent, end, duration)

    def _close(self, name, frame, parent, end, duration) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self_time = duration - frame.child
        if name in HOT:
            entry = self.hot.setdefault(name, [0, 0.0, 0.0, []])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            entry[3].append(duration)
            return
        self.spans.append(
            {
                "id": frame.span_id,
                "name": name,
                "start": frame.start - self.t0,
                "end": end - self.t0,
                "parent": parent.span_id if parent is not None else None,
                "self": self_time,
            }
        )

    def record_async(self, name: str, duration: float) -> None:
        """Add one awaited call (kept off the span stack) to *name*."""
        self.calls[name] = self.calls.get(name, 0) + 1
        entry = self.hot.setdefault(name, [0, 0.0, 0.0, []])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration
        entry[3].append(duration)

    def busy(self, name: str) -> float:
        """Total seconds inside outermost spans named *name*."""
        if name in self.hot:
            return self.hot[name][1]
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Total self seconds of spans named *name*."""
        if name in self.hot:
            return self.hot[name][2]
        return sum(s["self"] for s in self.spans if s["name"] == name)

    def export(self) -> dict[str, Any]:
        """JSON-ready dump: every stored span plus the hot aggregates."""
        return {
            "spans": self.spans,
            "aggregates": {
                name: {
                    "count": c,
                    "busy_s": b,
                    "self_s": s,
                    "p50_ms": percentile(d, 50) * 1e3,
                    "p99_ms": percentile(d, 99) * 1e3,
                }
                for name, (c, b, s, d) in sorted(self.hot.items())
            },
            "calls": dict(sorted(self.calls.items())),
        }


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, raw attribute) for a TARGETS entry."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{module_name}.{path} is not defined on the class itself")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _wrap(recorder: Recorder, name: str, func: Callable) -> Callable:
    if asyncio.iscoroutinefunction(func):

        @functools.wraps(func)
        async def traced_async(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                recorder.record_async(name, time.perf_counter() - start)

        return traced_async

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with recorder.span(name):
            result = func(*args, **kwargs)
        if name == "core.elink_vec.run" and result is not None:
            recorder.flags["vectorized"] = 1
        return result

    return traced


@contextmanager
def installed(recorder: Recorder):
    """Wrap every TARGETS entry for the duration of the block.

    Raises ``AttributeError`` when a target no longer exists, so a traced
    run against code that renamed or removed a layer fails loudly instead
    of reporting the layer as idle.  The original attributes are put back
    on exit, exceptions included.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name in TARGETS:
            owner, attr, raw = _resolve(module_name, path)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(_wrap(recorder, name, raw.__func__))
            else:
                patched = _wrap(recorder, name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def originals() -> dict[str, Any]:
    """The current raw attribute of every target (for identity checks)."""
    return {
        f"{module}:{path}": _resolve(module, path)[2] for module, path, _name in TARGETS
    }
