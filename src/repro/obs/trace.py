"""Structured tracing: typed, timestamped protocol events in a ring buffer.

A :class:`Tracer` collects :class:`TraceEvent` records emitted by hooks in
the simulation and protocol layers (`sim/kernel.py`, `sim/network.py`,
`sim/node.py`, `sim/faults.py`, `core/elink.py`).  Tracing is **opt-in and
zero-cost when disabled**: every hook site guards on ``tracer is not
None``, so a run without a tracer attached executes exactly the same
instruction stream as before this module existed (verified by the
byte-identical BENCH tables and the fast-path micro-benchmarks).

Event taxonomy (the complete catalog lives in ``docs/OBSERVABILITY.md``):

========================  ====================================================
prefix                    emitted by
========================  ====================================================
``msg.*``                 the network delivery layer (send/route/deliver/drop)
``timer.*``               timer lifecycle (set at the node, fire/skip at the
                          kernel, blanket-cancel at crash cleanup)
``node.* / link.*``       topology mutators (crash, recover, link up/down)
``fault.*``               the fault injector applying a :class:`FaultPlan`
``repair.*``              protocol-level repair notices (orphan re-rooting,
                          sentinel failover, child pruning)
``elink.*``               ELink phase transitions (elect, join, switch,
                          episode completion, phase1/phase2 waves, takeover,
                          final assembly)
========================  ====================================================

The buffer is a bounded ring (oldest events evicted first);
:attr:`Tracer.evicted` reports how many were lost so analyses know when a
trace is a suffix rather than the whole run.  Export is line-delimited
JSON (one event per line) via :meth:`Tracer.export_jsonl`, the format the
``python -m repro trace`` inspector consumes.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

#: Default ring-buffer capacity (events).  At ~120 bytes/event this bounds
#: a runaway trace to ~30 MB of memory.
DEFAULT_CAPACITY = 262_144


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced occurrence: a timestamp, a type tag, a subject node, and
    free-form payload details.

    ``node`` is the event's subject (the crashing node, the timer owner,
    the message destination for deliveries, the sender for sends); events
    without a natural subject (e.g. ``elink.assembled``) use ``None``.
    """

    time: float
    type: str
    node: Hashable | None
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to one JSONL line (numpy scalars/arrays coerced)."""
        payload = {"t": self.time, "type": self.type, "node": self.node}
        if self.data:
            payload["data"] = self.data
        return json.dumps(payload, default=_json_default)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one JSONL line back into an event.

        JSON has no tuples, so tuple node ids round-trip as lists; the
        inspector treats ids opaquely, which makes this loss harmless.
        """
        payload = json.loads(line)
        return cls(
            time=float(payload["t"]),
            type=payload["type"],
            node=payload.get("node"),
            data=payload.get("data", {}),
        )


def _json_default(value: Any) -> Any:
    """JSON fallback for payload values: numpy first, then ``repr``."""
    tolist = getattr(value, "tolist", None)
    if tolist is not None:  # numpy scalars and arrays
        return tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` records.

    Attach one to a :class:`~repro.sim.network.Network` at construction
    (``Network(graph, tracer=tracer)``) and every instrumented layer that
    touches the network — kernel, nodes, fault injector, ELink runtime —
    emits through it.  A network without a tracer pays one ``is not None``
    predicate per hook site and nothing else.

    Parameters
    ----------
    capacity:
        Ring size in events; the oldest events are evicted beyond it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._emitted = 0
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    # -- emission -------------------------------------------------------
    def emit(
        self, time: float, type: str, node: Hashable | None = None, **data: Any
    ) -> None:
        """Record one event.  Keyword arguments become the event payload."""
        self._emitted += 1
        event = TraceEvent(time, type, node, data)
        self._buffer.append(event)
        if self._subscribers:
            for callback in self._subscribers:
                callback(event)

    # -- subscription ---------------------------------------------------
    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke *callback* synchronously on every future :meth:`emit`.

        This is how online checkers (the ``repro.verify`` invariant
        monitors) see events as they happen instead of post-hoc from the
        ring, whose oldest events may have been evicted.  Subscribers must
        not mutate simulation state.  With no subscribers the emit path
        pays one truthiness check.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Remove a subscriber added by :meth:`subscribe` (no-op if absent)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def emitted(self) -> int:
        """Total events emitted over the tracer's lifetime."""
        return self._emitted

    @property
    def evicted(self) -> int:
        """Events lost to the ring bound (0 means the trace is complete)."""
        return self._emitted - len(self._buffer)

    @property
    def capacity(self) -> int:
        """Ring-buffer bound, in events."""
        buffer_maxlen = self._buffer.maxlen
        assert buffer_maxlen is not None
        return buffer_maxlen

    def events(
        self,
        *,
        type: str | None = None,
        prefix: str | None = None,
        node: Hashable | None = None,
        since: float | None = None,
        until: float | None = None,
        predicate: Callable[[TraceEvent], bool] | None = None,
    ) -> Iterator[TraceEvent]:
        """Iterate buffered events, oldest first, with optional filters.

        ``type`` matches exactly, ``prefix`` matches ``event.type``
        prefixes (e.g. ``"msg."``), ``node`` matches the subject node, and
        ``since``/``until`` bound the timestamp (inclusive).
        """
        for event in self._buffer:
            if type is not None and event.type != type:
                continue
            if prefix is not None and not event.type.startswith(prefix):
                continue
            if node is not None and event.node != node:
                continue
            if since is not None and event.time < since:
                continue
            if until is not None and event.time > until:
                continue
            if predicate is not None and not predicate(event):
                continue
            yield event

    def type_counts(self) -> Counter:
        """Event counts by type, over the buffered window."""
        return Counter(event.type for event in self._buffer)

    def clear(self) -> None:
        """Drop all buffered events (lifetime counters keep running)."""
        self._buffer.clear()

    # -- export ---------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write the buffered events to *path*, one JSON object per line.

        Returns the number of events written.  The format is documented in
        ``docs/OBSERVABILITY.md`` and consumed by ``python -m repro trace``.
        """
        with open(path, "w", encoding="utf-8") as handle:
            count = 0
            for event in self._buffer:
                handle.write(event.to_json())
                handle.write("\n")
                count += 1
        return count

    @staticmethod
    def load_jsonl(path: str) -> list[TraceEvent]:
        """Read a JSONL trace back into a list of :class:`TraceEvent`."""
        return list(iter_jsonl(path))

    def __repr__(self) -> str:
        return (
            f"Tracer(buffered={len(self._buffer)}, emitted={self._emitted}, "
            f"capacity={self.capacity})"
        )


def iter_jsonl(path: str) -> Iterable[TraceEvent]:
    """Stream a JSONL trace file without materializing the whole list."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield TraceEvent.from_json(line)
