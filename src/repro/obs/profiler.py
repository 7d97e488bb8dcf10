"""Kernel profiling: per-event-type wall-time accounting.

The event kernel is the chokepoint every simulated action flows through —
message deliveries, protocol timers, fault injections — which makes it the
one place a profiler can attribute wall time to *protocol behaviour*
rather than Python call stacks.  :class:`KernelProfiler` accumulates
``(count, seconds)`` per callback qualname (``Network._deliver_cohort``,
``ELinkNode._episode_timeout``, ``FaultInjector._apply``, ...), and
:meth:`KernelProfiler.report` renders a flame-style summary: one bar per
event type, widest first.

Activation is ambient: :class:`~repro.sim.kernel.EventKernel` asks
:func:`current_profiler` at construction, so ``with profiled() as prof:``
captures every kernel created inside the block — including the ones
experiments build internally — without threading a parameter through
every layer.  With no profiler active (the default) the kernel's run loop
pays a single ``is None`` predicate per event and takes no timestamps.

This module must stay import-light (no numpy, no repro.sim) because the
kernel imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

_active: "KernelProfiler | None" = None


def current_profiler() -> "KernelProfiler | None":
    """The ambient profiler new kernels should attach, or None."""
    return _active


def set_profiler(profiler: "KernelProfiler | None") -> None:
    """Install *profiler* as the ambient profiler (None deactivates)."""
    global _active
    _active = profiler


@contextmanager
def profiled(profiler: "KernelProfiler | None" = None) -> Iterator["KernelProfiler"]:
    """Context manager: activate a profiler for every kernel built inside.

    ::

        with profiled() as prof:
            run_elink(...)
        print(prof.report())
    """
    prof = profiler if profiler is not None else KernelProfiler()
    previous = _active
    set_profiler(prof)
    try:
        yield prof
    finally:
        set_profiler(previous)


class KernelProfiler:
    """Accumulates wall time and event counts per callback qualname."""

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def record(self, callback: Callable, elapsed: float) -> None:
        """Charge *elapsed* wall seconds to *callback*'s event type."""
        name = getattr(callback, "__qualname__", None) or repr(callback)
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def total_seconds(self) -> float:
        """Wall time attributed across all event types."""
        return sum(self.seconds.values())

    @property
    def total_events(self) -> int:
        """Events executed under profiling."""
        return sum(self.counts.values())

    def rows(self) -> list[tuple[str, int, float]]:
        """``(qualname, count, seconds)`` rows, most expensive first."""
        return sorted(
            ((name, self.counts[name], secs) for name, secs in self.seconds.items()),
            key=lambda row: -row[2],
        )

    def report(self, width: int = 40) -> str:
        """Flame-style text summary: one bar per event type, widest first."""
        rows = self.rows()
        if not rows:
            return "(no events profiled)"
        total = self.total_seconds or 1e-12
        name_width = max(len(name) for name, _, _ in rows)
        lines = [
            f"kernel profile: {self.total_events} events, "
            f"{self.total_seconds * 1e3:.1f} ms attributed"
        ]
        for name, count, secs in rows:
            share = secs / total
            bar = "#" * max(1, round(share * width))
            lines.append(
                f"  {name:<{name_width}}  {secs * 1e3:9.2f} ms  {count:>9}x  "
                f"{share:6.1%}  {bar}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(types={len(self.seconds)}, events={self.total_events}, "
            f"wall={self.total_seconds * 1e3:.1f}ms)"
        )
