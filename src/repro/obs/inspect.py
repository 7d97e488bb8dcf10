"""Trace inspector: reconstruct what a run did from its JSONL trace.

Library API (:class:`TraceInspector`) and CLI (``python -m repro trace
run.jsonl``) over the event stream exported by
:meth:`repro.obs.trace.Tracer.export_jsonl`.  The inspector answers the
questions a misbehaving run raises:

- *what happened, overall?* — event counts by type, time span, node count
  (:meth:`TraceInspector.summary_text`);
- *what did node X see?* — a per-node timeline of every event the node is
  the subject of **or referenced by** (as ``src``/``dst``/``dead``/...),
  so a crash shows up in its neighbours' timelines too
  (:meth:`TraceInspector.node_timeline`);
- *why were messages dropped?* — drops grouped by structured reason
  (:meth:`TraceInspector.drop_summary`);
- *how fast did repair happen?* — per crashed node: crash time, first
  detection (orphan re-rooting / sentinel takeover), first repair notice,
  and the crash→repair latency (:meth:`TraceInspector.repair_report`);
- *what did the live service endure?* — for traces from ``repro serve``:
  stage restarts, shed/backpressure episodes, source retries and stalls,
  checkpoint write/restore activity, and degraded-coverage windows with
  their recovery times (:meth:`TraceInspector.serve_report`);
- *how were queries planned and cached?* — for traces with ``queries.*``
  events from the cost-model planner: plan choices per backend and op,
  estimate accuracy (mean and worst actual/estimated cost ratio), and
  cache hit/miss traffic with the generation span it crossed
  (:meth:`TraceInspector.queries_report`).

CLI usage::

    python -m repro trace run.jsonl                  # summary
    python -m repro trace run.jsonl --node 57        # node 57's timeline
    python -m repro trace run.jsonl --type msg.drop  # filter by type
    python -m repro trace run.jsonl --since 10 --until 40 --prefix elink.
    python -m repro trace run.jsonl --drops --repairs
    python -m repro trace serve.jsonl --serve        # live-service rollup
    python -m repro trace serve.jsonl --queries      # planner/cache rollup
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Any, Iterable, Sequence

from repro.obs.trace import TraceEvent, iter_jsonl

#: Payload keys that reference other nodes; used to pull an event into the
#: timeline of every node it mentions, not just its subject.  ``stage``,
#: ``source`` and ``reading_node`` are the serving layer's subjects
#: (``serve.*`` events), so ``--node ingest:src-0`` works too.
_NODE_REF_KEYS = ("src", "dst", "via", "dead", "by", "root", "owner", "stage", "source", "reading_node")

#: Event types marking the first protocol-level *detection* of a crash.
_DETECTION_TYPES = {"elink.orphan", "elink.takeover"}


class TraceInspector:
    """Query layer over a loaded trace (a list of :class:`TraceEvent`)."""

    def __init__(self, events: Sequence[TraceEvent]):
        self.events = sorted(events, key=lambda e: e.time)

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceInspector":
        """Load the JSONL trace at *path*."""
        return cls(list(iter_jsonl(path)))

    @classmethod
    def stream_jsonl(
        cls,
        path: str,
        *,
        types: Iterable[str] | None = None,
        prefix: str | None = None,
        node: Any = None,
        since: float | None = None,
        until: float | None = None,
    ) -> "TraceInspector":
        """Stream the trace at *path*, retaining only matching events.

        Equivalent to ``from_jsonl(path).filtered(...)`` but the
        non-matching events are decoded one line at a time and dropped
        immediately — a filtered question against a multi-gigabyte trace
        holds only its answer in memory, never the file.
        """
        type_set = set(types) if types is not None else None
        return cls(
            [
                event
                for event in iter_jsonl(path)
                if _matches(event, type_set, prefix, node, since, until)
            ]
        )

    # -- basic shape ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) event timestamps; (0, 0) for an empty trace."""
        if not self.events:
            return (0.0, 0.0)
        return (self.events[0].time, self.events[-1].time)

    def nodes(self) -> list[Any]:
        """Every distinct subject node, sorted by repr."""
        return sorted({e.node for e in self.events if e.node is not None}, key=repr)

    def type_counts(self) -> Counter:
        """Event counts by type."""
        return Counter(e.type for e in self.events)

    # -- filtering ------------------------------------------------------
    def filtered(
        self,
        *,
        types: Iterable[str] | None = None,
        prefix: str | None = None,
        node: Any = None,
        since: float | None = None,
        until: float | None = None,
    ) -> "TraceInspector":
        """A new inspector over the matching subset of events.

        ``node`` matches the subject *or* any node-reference payload key,
        so a node's view includes messages sent to it and repairs of it.
        """
        type_set = set(types) if types is not None else None
        return TraceInspector(
            [
                event
                for event in self.events
                if _matches(event, type_set, prefix, node, since, until)
            ]
        )

    def node_timeline(self, node: Any) -> list[TraceEvent]:
        """Every event involving *node* (subject or referenced), in time order."""
        return self.filtered(node=node).events

    # -- diagnosis ------------------------------------------------------
    def drop_summary(self) -> Counter:
        """Structured-drop counts keyed by reason (``msg.drop`` events)."""
        return Counter(
            e.data.get("reason", "?") for e in self.events if e.type == "msg.drop"
        )

    def repair_report(self) -> list[dict[str, Any]]:
        """Per crashed node: crash / detection / repair times and latency.

        One dict per ``node.crash`` event (recoveries open a new entry if
        the node crashes again), with ``detect_time``/``repair_time`` of
        ``None`` when the trace holds no matching event — a stall worth
        investigating, which is the point of this report.
        """
        reports: list[dict[str, Any]] = []
        open_by_node: dict[Any, dict[str, Any]] = {}
        for event in self.events:
            if event.type == "node.crash":
                entry = {
                    "node": event.node,
                    "crash_time": event.time,
                    "detect_time": None,
                    "detect_kind": None,
                    "repair_time": None,
                    "repair_kind": None,
                    "repair_by": None,
                    "latency": None,
                }
                reports.append(entry)
                open_by_node[event.node] = entry
                continue
            if event.type in _DETECTION_TYPES:
                entry = open_by_node.get(event.data.get("dead"))
                if entry is not None and entry["detect_time"] is None:
                    entry["detect_time"] = event.time
                    entry["detect_kind"] = event.type
                continue
            if event.type == "repair.note":
                entry = open_by_node.get(event.data.get("dead"))
                if entry is not None and entry["repair_time"] is None:
                    entry["repair_time"] = event.time
                    entry["repair_kind"] = event.data.get("kind")
                    entry["repair_by"] = event.node
                    entry["latency"] = event.time - entry["crash_time"]
                    # A repair implies detection: the probe timeout that
                    # initiates a failover is itself the detection, and it
                    # can precede the elink.takeover event (which fires
                    # when the takeover *order arrives*).  Events are
                    # processed in time order, so first evidence wins.
                    if entry["detect_time"] is None:
                        entry["detect_time"] = event.time
                        entry["detect_kind"] = "repair.note"
        return reports

    def repair_latencies(self) -> list[float]:
        """Crash→first-repair latencies for every repaired crash."""
        return [
            r["latency"] for r in self.repair_report() if r["latency"] is not None
        ]

    def serve_report(self) -> dict[str, Any] | None:
        """Rollup of the ``serve.*`` event family, or None if absent.

        Summarizes what the resilience machinery of a live service run
        actually did: stage crashes/restarts/giveups per supervised
        stage, shed and backpressure episodes per queue, source
        retries/stalls/malformed readings per ingest source, checkpoint
        write/restore/reject activity, degraded-coverage episodes
        (paired ``serve.degraded`` → ``serve.recovered``, with the
        coverage floor each reached), and the run's lifecycle endpoints
        (resume, drain reason, exit code).
        """
        serve = [e for e in self.events if e.type.startswith("serve.")]
        if not serve:
            return None
        report: dict[str, Any] = {
            "events": len(serve),
            "resumed": None,
            "drain": None,
            "exit": None,
            "stage_crashes": Counter(),
            "stage_giveups": [],
            "shed_episodes": Counter(),
            "shed_total": Counter(),
            "backpressure_episodes": Counter(),
            "source_retries": Counter(),
            "source_stalls": Counter(),
            "malformed": Counter(),
            "checkpoint_writes": 0,
            "checkpoint_last_seq": None,
            "checkpoint_restores": 0,
            "checkpoint_rejected": 0,
            "degraded_episodes": [],
        }
        open_degraded: dict[str, Any] | None = None
        for event in serve:
            kind = event.type[len("serve."):]
            data = event.data
            if kind == "resumed":
                report["resumed"] = {"time": event.time, "seq": data.get("seq")}
            elif kind == "drain":
                report["drain"] = {"time": event.time, "reason": data.get("reason")}
            elif kind == "exit":
                report["exit"] = {
                    "time": event.time,
                    "code": data.get("code"),
                    "reason": data.get("reason"),
                }
            elif kind == "stage_crash":
                report["stage_crashes"][data.get("stage")] += 1
            elif kind == "stage_giveup":
                report["stage_giveups"].append(data.get("stage"))
            elif kind == "shed_episode":
                report["shed_episodes"][event.node] += 1
                report["shed_total"][event.node] += data.get("count", 0)
            elif kind == "backpressure":
                report["backpressure_episodes"][event.node] += 1
            elif kind == "source_retry":
                report["source_retries"][data.get("source")] += 1
            elif kind == "source_stall":
                report["source_stalls"][data.get("source")] += 1
            elif kind == "reading_malformed":
                report["malformed"][data.get("source")] += 1
            elif kind == "checkpoint_write":
                report["checkpoint_writes"] += 1
                report["checkpoint_last_seq"] = data.get("seq")
            elif kind == "checkpoint_restore":
                report["checkpoint_restores"] += 1
            elif kind == "checkpoint_rejected":
                report["checkpoint_rejected"] += 1
            elif kind == "degraded":
                if open_degraded is None:
                    open_degraded = {
                        "start": event.time,
                        "end": None,
                        "duration": None,
                        "floor": data.get("coverage"),
                    }
                    report["degraded_episodes"].append(open_degraded)
                else:
                    floor = data.get("coverage")
                    if floor is not None and (
                        open_degraded["floor"] is None or floor < open_degraded["floor"]
                    ):
                        open_degraded["floor"] = floor
            elif kind == "recovered" and open_degraded is not None:
                open_degraded["end"] = event.time
                open_degraded["duration"] = event.time - open_degraded["start"]
                open_degraded = None
        return report

    def queries_report(self) -> dict[str, Any] | None:
        """Rollup of the ``queries.*`` event family, or None if absent.

        Summarizes the cost-model planner's behaviour over the trace:
        how many queries ran per operation, which backend each plan
        chose, how accurate the cost model was (``actual/estimated``
        ratios over ``queries.execute`` events), and how the result
        cache behaved (hits/misses and the structure-generation span
        the trace covers).
        """
        queries = [e for e in self.events if e.type.startswith("queries.")]
        if not queries:
            return None
        report: dict[str, Any] = {
            "events": len(queries),
            "executed": Counter(),
            "plans": Counter(),
            "cache_hits": Counter(),
            "cache_misses": Counter(),
            "generations": set(),
        }
        ratios: list[float] = []
        for event in queries:
            kind = event.type[len("queries."):]
            data = event.data
            if kind == "plan":
                report["plans"][data.get("backend")] += 1
            elif kind == "execute":
                report["executed"][data.get("op")] += 1
                estimated = data.get("estimated")
                actual = data.get("actual")
                if estimated and actual is not None:
                    ratios.append(actual / estimated)
            elif kind == "cache_hit":
                report["cache_hits"][data.get("op")] += 1
                report["generations"].add(data.get("generation"))
            elif kind == "cache_miss":
                report["cache_misses"][data.get("op")] += 1
                report["generations"].add(data.get("generation"))
        report["estimate_ratio_mean"] = (
            round(sum(ratios) / len(ratios), 3) if ratios else None
        )
        report["estimate_ratio_worst"] = (
            round(max(ratios), 3) if ratios else None
        )
        report["generations"] = sorted(
            g for g in report["generations"] if g is not None
        )
        return report

    def queries_text(self) -> str:
        """Render the ``queries.*`` rollup (see :meth:`queries_report`)."""
        report = self.queries_report()
        if report is None:
            return "no queries.* events in trace"
        lines = [f"queries: {report['events']} events"]
        if report["executed"]:
            per_op = ", ".join(
                f"{op}={count}" for op, count in sorted(report["executed"].items())
            )
            lines.append(f"  executed: {sum(report['executed'].values())} ({per_op})")
        if report["plans"]:
            per_backend = ", ".join(
                f"{backend}={count}" for backend, count in sorted(report["plans"].items())
            )
            lines.append(f"  plans: {per_backend}")
        if report["estimate_ratio_mean"] is not None:
            lines.append(
                f"  cost model: actual/estimated mean "
                f"{report['estimate_ratio_mean']}x, worst "
                f"{report['estimate_ratio_worst']}x"
            )
        hits, misses = report["cache_hits"], report["cache_misses"]
        if hits or misses:
            total = sum(hits.values()) + sum(misses.values())
            rate = sum(hits.values()) / total if total else 0.0
            lines.append(
                f"  cache: {sum(hits.values())} hits, {sum(misses.values())} "
                f"misses ({rate:.0%} hit rate)"
            )
        if report["generations"]:
            first, last = report["generations"][0], report["generations"][-1]
            lines.append(f"  structure generations seen: {first}..{last}")
        return "\n".join(lines)

    def serve_text(self) -> str:
        """Render the ``serve.*`` rollup (see :meth:`serve_report`)."""
        report = self.serve_report()
        if report is None:
            return "no serve.* events in trace"
        lines = [f"serve: {report['events']} events"]
        if report["resumed"] is not None:
            lines.append(
                f"  resumed from checkpoint at t={report['resumed']['time']:.2f} "
                f"(seq {report['resumed']['seq']})"
            )
        crashes = report["stage_crashes"]
        if crashes:
            per_stage = ", ".join(f"{s}={c}" for s, c in sorted(crashes.items(), key=lambda kv: str(kv[0])))
            lines.append(f"  stage crashes/restarts: {sum(crashes.values())} ({per_stage})")
        for stage in report["stage_giveups"]:
            lines.append(f"  stage GAVE UP (crash budget exhausted): {stage}")
        for name, episodes in sorted(report["shed_episodes"].items(), key=lambda kv: str(kv[0])):
            lines.append(
                f"  shed: {report['shed_total'][name]} readings over "
                f"{episodes} episode(s) on {name!r}"
            )
        for name, episodes in sorted(report["backpressure_episodes"].items(), key=lambda kv: str(kv[0])):
            lines.append(f"  backpressure: {episodes} episode(s) on {name!r}")
        for source, count in sorted(report["source_retries"].items(), key=lambda kv: str(kv[0])):
            lines.append(f"  source retries: {count} on {source!r}")
        for source, count in sorted(report["source_stalls"].items(), key=lambda kv: str(kv[0])):
            lines.append(f"  source stalls: {count} on {source!r}")
        for source, count in sorted(report["malformed"].items(), key=lambda kv: str(kv[0])):
            lines.append(f"  malformed readings: {count} from {source!r}")
        if report["checkpoint_writes"] or report["checkpoint_restores"] or report["checkpoint_rejected"]:
            lines.append(
                f"  checkpoints: {report['checkpoint_writes']} written "
                f"(last seq {report['checkpoint_last_seq']}), "
                f"{report['checkpoint_restores']} restored, "
                f"{report['checkpoint_rejected']} rejected"
            )
        for episode in report["degraded_episodes"]:
            floor = episode["floor"]
            floor_text = f"coverage floor {floor:.3f}" if floor is not None else "coverage floor ?"
            if episode["end"] is not None:
                lines.append(
                    f"  degraded t=[{episode['start']:.2f}, {episode['end']:.2f}] "
                    f"({episode['duration']:.2f}s, {floor_text}) — recovered"
                )
            else:
                lines.append(
                    f"  degraded from t={episode['start']:.2f} ({floor_text}) — NOT recovered"
                )
        if report["exit"] is not None:
            lines.append(
                f"  exit {report['exit']['code']} ({report['exit']['reason']}) "
                f"at t={report['exit']['time']:.2f}"
            )
        return "\n".join(lines)

    # -- rendering ------------------------------------------------------
    def summary_text(self) -> str:
        """Human-readable run summary (the default CLI output)."""
        first, last = self.span
        lines = [
            f"trace: {len(self.events)} events, "
            f"t = [{first:.2f}, {last:.2f}], {len(self.nodes())} nodes",
            "",
            "events by type:",
        ]
        for type_name, count in sorted(
            self.type_counts().items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {type_name:<22} {count:>9}")
        drops = self.drop_summary()
        if drops:
            lines += ["", "drops by reason:"]
            for reason, count in drops.most_common():
                lines.append(f"  {reason:<22} {count:>9}")
        repairs = self.repair_report()
        if repairs:
            latencies = self.repair_latencies()
            repaired = len(latencies)
            lines += [
                "",
                f"crashes: {len(repairs)}, repaired: {repaired}"
                + (
                    f", mean repair latency {sum(latencies) / repaired:.1f}"
                    if repaired
                    else ""
                ),
            ]
        if self.serve_report() is not None:
            lines += ["", self.serve_text()]
        if self.queries_report() is not None:
            lines += ["", self.queries_text()]
        return "\n".join(lines)

    def timeline_text(self, node: Any, limit: int | None = None) -> str:
        """Render *node*'s timeline, one event per line."""
        events = self.node_timeline(node)
        shown = events if limit is None else events[:limit]
        lines = [f"timeline of node {node!r}: {len(events)} events"]
        for event in shown:
            detail = " ".join(f"{k}={_short(v)}" for k, v in event.data.items())
            subject = "" if event.node == node else f" @{event.node!r}"
            lines.append(f"  t={event.time:9.2f}  {event.type:<20}{subject}  {detail}")
        if limit is not None and len(events) > limit:
            lines.append(f"  ... {len(events) - limit} more (raise --limit)")
        return "\n".join(lines)

    def repair_text(self) -> str:
        """Render the crash→detection→repair table."""
        reports = self.repair_report()
        if not reports:
            return "no crashes in trace"
        lines = ["crash -> detection -> repair:"]
        for r in reports:
            detect = (
                f"detected t={r['detect_time']:.2f} ({r['detect_kind']})"
                if r["detect_time"] is not None
                else "never detected"
            )
            repair = (
                f"repaired t={r['repair_time']:.2f} ({r['repair_kind']} by "
                f"{r['repair_by']!r}, latency {r['latency']:.2f})"
                if r["repair_time"] is not None
                else "never repaired"
            )
            lines.append(
                f"  node {r['node']!r}: crash t={r['crash_time']:.2f} -> "
                f"{detect} -> {repair}"
            )
        return "\n".join(lines)


def _matches(
    event: TraceEvent,
    type_set: set[str] | None,
    prefix: str | None,
    node: Any,
    since: float | None,
    until: float | None,
) -> bool:
    """One event against the shared filter set (streaming and in-memory)."""
    if type_set is not None and event.type not in type_set:
        return False
    if prefix is not None and not event.type.startswith(prefix):
        return False
    if node is not None and not _involves(event, node):
        return False
    if since is not None and event.time < since:
        return False
    if until is not None and event.time > until:
        return False
    return True


def _involves(event: TraceEvent, node: Any) -> bool:
    """Whether *event* concerns *node* as subject or payload reference."""
    if event.node == node:
        return True
    data = event.data
    for key in _NODE_REF_KEYS:
        if key in data and data[key] == node:
            return True
    return False


def _short(value: Any, limit: int = 40) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _parse_node(raw: str) -> Any:
    """CLI node ids: prefer int (the common case), fall back to string."""
    try:
        return int(raw)
    except ValueError:
        return raw


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect a JSONL protocol trace (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument("path", help="JSONL trace written by Tracer.export_jsonl")
    parser.add_argument("--node", help="show this node's timeline")
    parser.add_argument(
        "--type", action="append", default=None, help="keep only this event type (repeatable)"
    )
    parser.add_argument("--prefix", help="keep only event types with this prefix (e.g. msg.)")
    parser.add_argument("--since", type=float, default=None, help="keep events at/after this time")
    parser.add_argument("--until", type=float, default=None, help="keep events at/before this time")
    parser.add_argument("--limit", type=int, default=100, help="max timeline lines (default 100)")
    parser.add_argument("--drops", action="store_true", help="print only the drop summary")
    parser.add_argument("--repairs", action="store_true", help="print the crash/repair table")
    parser.add_argument(
        "--serve", action="store_true", help="print the serve.* rollup (live service runs)"
    )
    parser.add_argument(
        "--queries",
        action="store_true",
        help="print the queries.* rollup (cost-model planner and result cache)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro trace``."""
    args = build_parser().parse_args(argv)
    if args.limit < 1:
        print("--limit must be >= 1", file=sys.stderr)
        return 2
    # One streaming pass with the filters applied per decoded line: only
    # the events this invocation can actually print survive the read.  A
    # --node-only query also filters by node at read time (the rollup
    # sections aggregate across nodes, so node stays in-memory for them).
    node_only = args.node is not None and not (
        args.drops or args.repairs or args.serve or args.queries
    )
    try:
        inspector = TraceInspector.stream_jsonl(
            args.path,
            types=args.type,
            prefix=args.prefix,
            node=_parse_node(args.node) if node_only else None,
            since=args.since,
            until=args.until,
        )
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    try:
        printed = False
        if args.drops:
            drops = inspector.drop_summary()
            if drops:
                for reason, count in drops.most_common():
                    print(f"{reason:<22} {count:>9}")
            else:
                print("no drops in trace")
            printed = True
        if args.repairs:
            print(inspector.repair_text())
            printed = True
        if args.serve:
            print(inspector.serve_text())
            printed = True
        if args.queries:
            print(inspector.queries_text())
            printed = True
        if args.node is not None:
            print(inspector.timeline_text(_parse_node(args.node), limit=args.limit))
            printed = True
        if not printed:
            print(inspector.summary_text())
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly like
        # other line-oriented tools instead of dumping a traceback.
        sys.stderr.close()
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
