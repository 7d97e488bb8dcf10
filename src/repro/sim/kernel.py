"""Discrete-event simulation kernel.

A minimal, deterministic calendar-queue scheduler in the spirit of SimPy's
core (SimPy itself is not available offline).  Everything in the
sensor-network substrate — message delivery, protocol timers, the
implicit-signalling schedule of ELink — runs as callbacks on one
:class:`EventKernel`.

Determinism: events run in ``(time, seq)`` order — by timestamp, and at
one timestamp in scheduling order (FIFO).  The simulator's dominant
workload is many events sharing few distinct timestamps (the jitter-free
fast path delivers every hop at ``now + HOP_DELAY``, and the implicit
ELink schedule starts whole sentinel levels at the same instant), so
entries live in append-only per-timestamp buckets and a heap orders only
the distinct timestamps.  Draining a bucket front to back *is* sequence
order: no tie-breaker, no comparisons.  This makes every protocol run
reproducible.

Two scheduling entry points share the buckets (so FIFO ordering holds
across both):

- :meth:`EventKernel.schedule` — allocates an :class:`Event` handle that
  supports :meth:`Event.cancel`.  Used for protocol timers.
- :meth:`EventKernel.post` — the allocation-slim fast path for
  fire-and-forget callbacks (the network layer's message deliveries, which
  are never cancelled).  Pushes a bare tuple and returns nothing.

Observability (DESIGN.md §10): the kernel carries two optional observers,
both ``None`` by default so the run loop pays one predicate per event and
nothing else:

- :attr:`EventKernel.tracer` — a :class:`repro.obs.trace.Tracer`; timer
  events (cancellable :class:`Event` entries) emit ``timer.fire`` /
  ``timer.skip``.  Message deliveries are traced at the network layer,
  where src/dst/kind are known, so ``post`` entries are not re-traced
  here.
- :attr:`EventKernel.profiler` — a
  :class:`repro.obs.profiler.KernelProfiler`, picked up ambiently from
  :func:`repro.obs.profiler.current_profiler` at construction, charging
  wall time per callback qualname.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter
from typing import Any, Callable

from repro._validation import require_non_negative
from repro.obs.profiler import current_profiler


class Event:
    """A scheduled callback.  Returned by :meth:`EventKernel.schedule`.

    The only supported mutation is :meth:`cancel`, which marks the event so
    the kernel skips it when it reaches the head of the queue (lazy deletion).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "owner")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        #: Owning node id when scheduled via ``Network.schedule_owned``
        #: (None otherwise).  Pure attribution: traced ``timer.fire`` /
        #: ``timer.skip`` events carry it as their subject node, which is
        #: what lets the ``repro.verify`` timer-ownership monitor tie a
        #: fire back to a (possibly crashed) owner.
        self.owner = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once.

        Cancelling after the event has fired is a no-op (the callback has
        already run); owner registries rely on this so that crashing a node
        can blanket-cancel its timers without tracking which already fired.
        """
        self.cancelled = True

    def __repr__(self) -> str:
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"Event(t={self.time:.3f}, {name}, {state})"


class EventKernel:
    """Deterministic calendar-queue scheduler.

    Usage::

        kernel = EventKernel()
        kernel.schedule(5.0, handler, arg1, arg2)
        kernel.run()          # drain all events
        kernel.now            # time of the last executed event

    Pushing into an existing timestamp bucket is O(1), and popping usually
    hits the current bucket without touching the times-heap; far-future or
    irregular timestamps land in singleton buckets, degrading gracefully
    to plain heap behaviour.

    Invariant: a timestamp is in ``_times`` iff it has a (possibly empty)
    bucket in ``_buckets``; empty buckets are reaped lazily when they reach
    the head of the times-heap.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._buckets: dict[float, deque] = {}
        self._times: list[float] = []
        self._pending = 0
        self._events_executed = 0
        #: Monotone count of pushes; the network's cohort batcher reads
        #: this to detect whether any entry was queued since it last
        #: appended to an open cohort (the sealing rule that keeps batched
        #: delivery in exact (time, seq) order).
        self.pushes = 0
        #: Optional :class:`repro.obs.trace.Tracer` for timer events; the
        #: network attaches its own tracer here so one trace covers both.
        self.tracer = None
        #: Optional per-event-type wall-time profiler, inherited from the
        #: ambient :func:`repro.obs.profiler.profiled` context.
        self.profiler = current_profiler()

    @property
    def events_executed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return self._pending

    def _push(self, time: float, event: Event | None, callback: Callable[..., Any], args: tuple) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = deque()
            self._buckets[time] = bucket
            heapq.heappush(self._times, time)
        bucket.append((event, callback, args))
        self._pending += 1
        self.pushes += 1

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback(*args)* to run ``delay`` time units from now.

        Returns a cancellable :class:`Event` handle; use :meth:`post` when
        the handle is not needed (it skips the allocation).
        """
        require_non_negative(delay, "delay")
        event = Event(self.now + delay, callback, args)
        self._push(event.time, event, callback, args)
        return event

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fast path: schedule a fire-and-forget callback (not cancellable).

        Identical ordering semantics to :meth:`schedule` (same clock, same
        FIFO buckets) without allocating an :class:`Event`.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._push(self.now + delay, None, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback(*args)* at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now={self.now}")
        return self.schedule(time - self.now, callback, *args)

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget at absolute time ``time`` (>= now).

        The absolute-time sibling of :meth:`post`: no :class:`Event` is
        allocated and the entry cannot be cancelled.  Batch processors (the
        vectorised ELink engine) use this to place whole event cohorts at
        exact timestamps computed once, instead of round-tripping through
        ``now + delay`` at every push.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now={self.now}")
        self._push(time, None, callback, args)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute events in time order.

        Stops when the queue is empty, when the next event is later than
        ``until``, or after ``max_events`` events (a runaway-protocol
        guard).  The guard is checked *before* the next event is popped, so
        on :class:`RuntimeError` the offending event is still queued and the
        kernel can be resumed with a larger budget.  Returns the kernel time
        afterwards.
        """
        times = self._times
        buckets = self._buckets
        executed = 0
        tracer = self.tracer
        profiler = self.profiler
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if not bucket:
                heapq.heappop(times)
                if bucket is not None:
                    del buckets[time]
                continue
            if until is not None and time > until:
                self.now = until
                return self.now
            entry = bucket[0]
            event = entry[0]
            if event is not None and event.cancelled:
                bucket.popleft()
                self._pending -= 1
                if tracer is not None:
                    tracer.emit(time, "timer.skip", event.owner, callback=_callback_name(entry[1]))
                continue
            if max_events is not None and executed >= max_events:
                raise RuntimeError(
                    f"kernel exceeded max_events={max_events}; "
                    "a protocol is probably not terminating"
                )
            bucket.popleft()
            self._pending -= 1
            self.now = time
            if event is not None:
                event.fired = True
                if tracer is not None:
                    tracer.emit(time, "timer.fire", event.owner, callback=_callback_name(entry[1]))
            if profiler is None:
                entry[1](*entry[2])
            else:
                started = perf_counter()
                entry[1](*entry[2])
                profiler.record(entry[1], perf_counter() - started)
            executed += 1
            self._events_executed += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def __repr__(self) -> str:
        return f"EventKernel(now={self.now:.3f}, pending={self.pending})"


def _callback_name(callback: Callable[..., Any]) -> str:
    """Stable, JSON-friendly identity for a timer callback."""
    return getattr(callback, "__qualname__", None) or repr(callback)
