"""Determinism differ: run a scenario twice, structurally diff the traces.

The repo's determinism contract (docs/ARCHITECTURE.md) says a fixed seed
fixes everything: the kernel breaks timestamp ties FIFO, fault plans are
pure functions of their seed, and no code path may iterate an unordered
``set``/``dict`` where order reaches the schedule.  This module turns the
contract into a check: :func:`replay_check` executes the same
:class:`~repro.verify.harness.ScenarioSpec` twice from scratch and
compares the full trace event streams *byte for byte* (via each event's
canonical JSONL form).  Any nondeterminism that touches behaviour —
unordered iteration, id()-keyed containers, RNG shared across runs —
shows up as a first divergence with both sides printed.

This is cheaper and stricter than comparing experiment tables: tables
aggregate, traces expose the first divergent event with its timestamp and
payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.trace import TraceEvent, Tracer
from repro.verify.harness import ScenarioSpec, run_scenario


@dataclass(frozen=True)
class TraceDivergence:
    """The first point where two replayed traces disagree.

    ``first`` / ``second`` are the canonical JSONL forms of the divergent
    events; ``None`` means that stream ended early.
    """

    index: int
    first: str | None
    second: str | None

    def __str__(self) -> str:
        return (
            f"traces diverge at event #{self.index}:\n"
            f"  run 1: {self.first or '<end of trace>'}\n"
            f"  run 2: {self.second or '<end of trace>'}"
        )


def diff_traces(
    first: Iterable[TraceEvent], second: Iterable[TraceEvent]
) -> TraceDivergence | None:
    """Return the first divergence between two event streams, or None.

    Events are compared through :meth:`TraceEvent.to_json`, the same
    canonical form the JSONL exporter writes — so "no divergence" means
    the exported trace files would be byte-identical.
    """
    iter_first = iter(first)
    iter_second = iter(second)
    index = 0
    while True:
        event_a = next(iter_first, None)
        event_b = next(iter_second, None)
        if event_a is None and event_b is None:
            return None
        line_a = event_a.to_json() if event_a is not None else None
        line_b = event_b.to_json() if event_b is not None else None
        if line_a != line_b:
            return TraceDivergence(index, line_a, line_b)
        index += 1


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay determinism check."""

    spec: ScenarioSpec
    events: int
    evicted: int
    divergence: TraceDivergence | None

    @property
    def identical(self) -> bool:
        """True when the two runs produced byte-identical traces."""
        return self.divergence is None

    def __str__(self) -> str:
        if self.identical:
            window = "" if not self.evicted else f" (ring evicted {self.evicted}; diffed the retained suffix)"
            return f"replay OK: {self.events} events byte-identical across two runs{window}"
        return str(self.divergence)


def replay_check(spec: ScenarioSpec, *, level: str = "off") -> ReplayReport:
    """Run *spec* twice at fixed seed and diff the resulting traces.

    ``level`` is the verification level applied to both runs ("off" keeps
    the check focused on determinism; "full" also arms the invariant
    monitors, which never mutate state and so cannot mask a divergence).
    """
    tracer_a = Tracer()
    run_scenario(spec, level=level, tracer=tracer_a)
    tracer_b = Tracer()
    run_scenario(spec, level=level, tracer=tracer_b)
    divergence = diff_traces(tracer_a.events(), tracer_b.events())
    if divergence is None and tracer_a.emitted != tracer_b.emitted:
        # Identical retained windows but different lifetime counts can only
        # happen when the ring evicted differently-sized prefixes.
        divergence = TraceDivergence(
            0,
            f"<{tracer_a.emitted} events emitted>",
            f"<{tracer_b.emitted} events emitted>",
        )
    return ReplayReport(
        spec=spec,
        events=len(tracer_a),
        evicted=tracer_a.evicted,
        divergence=divergence,
    )
