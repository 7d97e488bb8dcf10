"""Tests for the trace inspector: timeline reconstruction, the
crash -> detection -> repair report, CLI plumbing, and a smoke test over
the checked-in chaos fixture (``tests/data/chaos_small.jsonl``)."""

import functools
import importlib.util
import pathlib

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import ELinkConfig, run_elink
from repro.features.metrics import EuclideanMetric
from repro.geometry import QuadTreeDecomposition, grid_topology
from repro.obs import TraceInspector, Tracer
from repro.obs.inspect import main as trace_main
from repro.obs.trace import TraceEvent
from repro.sim import FaultInjector, FaultPlan, Network

FIXTURE = pathlib.Path(__file__).parent / "data" / "chaos_small.jsonl"


def _event(t, type, node=None, **data):
    return TraceEvent(t, type, node, data)


# ----------------------------------------------------------------------
# Reconstruction on hand-built traces
# ----------------------------------------------------------------------
def test_filters_and_node_timeline():
    events = [
        _event(0.0, "msg.send", 1, dst=2, kind="expand"),
        _event(1.0, "msg.deliver", 2, src=1, kind="expand"),
        _event(2.0, "node.crash", 3, degree=2),
        _event(3.0, "repair.note", 4, kind="orphan_root", dead=3),
    ]
    inspector = TraceInspector(events)
    assert len(inspector) == 4
    assert inspector.span == (0.0, 3.0)
    assert inspector.nodes() == [1, 2, 3, 4]
    # node filter matches payload references too: node 3 sees its repair.
    timeline = inspector.node_timeline(3)
    assert [e.type for e in timeline] == ["node.crash", "repair.note"]
    # node 2 sees the send addressed to it.
    assert [e.type for e in inspector.node_timeline(2)] == ["msg.send", "msg.deliver"]
    sub = inspector.filtered(prefix="msg.", until=0.5)
    assert [e.type for e in sub.events] == ["msg.send"]


def test_repair_report_joins_crash_detection_repair():
    events = [
        _event(1.0, "node.crash", 7, degree=3),
        _event(2.5, "elink.orphan", 9, dead=7, old_root=7),
        _event(3.0, "repair.note", 9, kind="orphan_root", dead=7),
        _event(4.0, "node.crash", 8, degree=2),  # never repaired
    ]
    (first, second) = TraceInspector(events).repair_report()
    assert first["node"] == 7
    assert first["detect_time"] == 2.5 and first["detect_kind"] == "elink.orphan"
    assert first["repair_time"] == 3.0 and first["repair_by"] == 9
    assert first["latency"] == pytest.approx(2.0)
    assert second["node"] == 8
    assert second["detect_time"] is None and second["repair_time"] is None
    assert TraceInspector(events).repair_latencies() == [pytest.approx(2.0)]


def test_repair_note_counts_as_detection():
    # A probe-timeout failover can emit repair.note before the takeover
    # event lands; the report must stay monotone (detect <= repair).
    events = [
        _event(1.0, "node.crash", 7),
        _event(5.0, "repair.note", 4, kind="sentinel_failover", dead=7),
        _event(6.0, "elink.takeover", 5, dead=7, round=2),
    ]
    (report,) = TraceInspector(events).repair_report()
    assert report["detect_time"] == 5.0
    assert report["detect_kind"] == "repair.note"
    assert report["detect_time"] <= report["repair_time"]


def test_drop_summary():
    events = [
        _event(0.0, "msg.drop", 1, reason="no_route"),
        _event(1.0, "msg.drop", 2, reason="no_route"),
        _event(2.0, "msg.drop", 3, reason="dead_destination"),
    ]
    drops = TraceInspector(events).drop_summary()
    assert drops == {"no_route": 2, "dead_destination": 1}


def test_render_helpers():
    events = [
        _event(0.0, "msg.send", 1, dst=2, kind="expand"),
        _event(2.0, "node.crash", 3),
    ]
    inspector = TraceInspector(events)
    assert "2 events" in inspector.summary_text()
    text = inspector.timeline_text(1, limit=10)
    assert "msg.send" in text and "dst=2" in text
    assert "never repaired" in inspector.repair_text()
    assert TraceInspector([]).repair_text() == "no crashes in trace"


# ----------------------------------------------------------------------
# Round trip: live run -> JSONL -> inspector
# ----------------------------------------------------------------------
def test_live_run_round_trip(tmp_path):
    topology = grid_topology(5, 5)
    features = {
        node: np.array([(x + y) / 10.0])
        for node, (x, y) in topology.positions.items()
    }
    config = ELinkConfig(delta=1.0, signalling="explicit", failure_detection=True)
    quadtree = QuadTreeDecomposition(topology)
    victim = next(
        v for v in sorted(topology.graph.nodes)
        if v != quadtree.root and quadtree.level_of[v] == quadtree.depth
    )
    tracer = Tracer()
    network = Network(topology.graph.copy(), tracer=tracer)
    injector = FaultInjector(network, FaultPlan().crash(2.0, victim))
    run_elink(
        topology, features, EuclideanMetric(), config,
        quadtree=quadtree, network=network, injector=injector, tracer=tracer,
    )
    path = tmp_path / "run.jsonl"
    written = tracer.export_jsonl(str(path))
    assert written == tracer.emitted  # nothing evicted at this scale

    inspector = TraceInspector.from_jsonl(str(path))
    assert len(inspector) == written
    counts = inspector.type_counts()
    # The reconstruction sees the whole lifecycle the live tracer saw.
    assert counts == dict(tracer.type_counts())
    assert counts["node.crash"] == 1
    assert counts["msg.send"] > 0 and counts["elink.episode_done"] > 0
    (report,) = inspector.repair_report()
    assert report["node"] == victim
    assert report["crash_time"] == pytest.approx(2.0)
    # The victim's timeline starts before its crash and includes it.
    timeline = inspector.node_timeline(victim)
    assert any(e.type == "node.crash" for e in timeline)


# ----------------------------------------------------------------------
# CLI + checked-in fixture
# ----------------------------------------------------------------------
def test_fixture_smoke(capsys):
    assert FIXTURE.is_file(), "regenerate with tools/make_chaos_trace.py"
    assert trace_main([str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert "events by type:" in out and "node.crash" in out
    assert trace_main([str(FIXTURE), "--repairs"]) == 0
    out = capsys.readouterr().out
    assert "crash -> detection -> repair:" in out
    assert "repaired t=" in out  # the fixture contains a full repair chain


def test_fixture_has_full_repair_chain():
    inspector = TraceInspector.from_jsonl(str(FIXTURE))
    reports = inspector.repair_report()
    assert len(reports) == 2
    repaired = [r for r in reports if r["latency"] is not None]
    assert repaired, "fixture must contain a crash -> detection -> repair chain"
    assert all(
        r["detect_time"] <= r["repair_time"] for r in repaired
    )


def test_fixture_is_reproducible(tmp_path):
    """``tools/make_chaos_trace.py`` regenerates the fixture byte for byte,
    so a change that alters the trace fails here until it is refreshed."""
    script = pathlib.Path(__file__).parent.parent / "tools" / "make_chaos_trace.py"
    spec = importlib.util.spec_from_file_location("make_chaos_trace", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer, _summary = module.build_trace()
    out = tmp_path / "chaos_small.jsonl"
    tracer.export_jsonl(str(out))
    assert out.read_bytes() == FIXTURE.read_bytes()


def test_cli_dispatches_trace_subcommand(capsys):
    assert cli_main(["trace", str(FIXTURE), "--drops"]) == 0
    out = capsys.readouterr().out
    assert "dead_destination" in out or "no drops in trace" in out


def test_cli_trace_missing_file(capsys):
    assert trace_main(["/nonexistent/trace.jsonl"]) == 1
    assert "cannot read trace" in capsys.readouterr().err


def test_cli_rejects_non_positive_limit(capsys):
    assert trace_main([str(FIXTURE), "--limit", "0"]) == 2
    assert "--limit must be >= 1" in capsys.readouterr().err
    assert trace_main([str(FIXTURE), "--limit", "-3"]) == 2


def test_cli_limit_caps_timeline_lines(capsys):
    assert trace_main([str(FIXTURE), "--node", "38", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(body) <= 3  # 2 events + the "... N more" marker
    assert any("more (raise --limit)" in line for line in out.splitlines())


def test_stream_jsonl_matches_eager_load_with_filters():
    eager = TraceInspector.from_jsonl(FIXTURE).filtered(prefix="msg.", until=40.0)
    streamed = TraceInspector.stream_jsonl(FIXTURE, prefix="msg.", until=40.0)
    assert [
        (e.time, e.type, e.node, e.data) for e in eager.events
    ] == [(e.time, e.type, e.node, e.data) for e in streamed.events]
    assert len(streamed) == len(eager)


def test_stream_jsonl_node_filter_matches_node_timeline():
    eager = TraceInspector.from_jsonl(FIXTURE)
    node = eager.nodes()[0]
    streamed = TraceInspector.stream_jsonl(FIXTURE, node=node)
    assert [e.type for e in streamed.events] == [
        e.type for e in eager.node_timeline(node)
    ]


def test_cli_node_timeline_and_filters(capsys):
    assert trace_main([str(FIXTURE), "--node", "38", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "timeline of node 38" in out
    assert trace_main([str(FIXTURE), "--type", "node.crash"]) == 0
    out = capsys.readouterr().out
    assert "node.crash" in out


# ----------------------------------------------------------------------
# serve.* rollup (live-service traces)
# ----------------------------------------------------------------------
SERVE_FIXTURE = pathlib.Path(__file__).parent / "data" / "serve_chaos.jsonl"


def test_serve_report_on_hand_built_trace():
    events = [
        _event(0.0, "serve.start", n=4),
        _event(0.1, "serve.stage_crash", "pipeline", stage="pipeline", error="boom"),
        _event(0.1, "serve.stage_restart", "pipeline", stage="pipeline", backoff=0.05),
        _event(0.2, "serve.degraded", coverage=0.5),
        _event(0.3, "serve.shed_episode", "pipeline", topic="readings", count=7),
        _event(0.4, "serve.recovered", coverage=1.0),
        _event(0.5, "serve.checkpoint_write", seq=100, bytes=10),
        _event(0.6, "serve.exit", code=0, reason="stream_end"),
    ]
    report = TraceInspector(events).serve_report()
    assert report["stage_crashes"] == {"pipeline": 1}
    assert report["shed_total"]["pipeline"] == 7
    assert report["checkpoint_writes"] == 1
    assert report["checkpoint_last_seq"] == 100
    [episode] = report["degraded_episodes"]
    assert episode["floor"] == 0.5
    assert episode["duration"] == pytest.approx(0.2)
    assert report["exit"] == {"time": 0.6, "code": 0, "reason": "stream_end"}


def test_serve_report_absent_without_serve_events():
    inspector = TraceInspector([_event(0.0, "msg.send", 1, dst=2)])
    assert inspector.serve_report() is None
    assert "no serve.* events" in inspector.serve_text()


def test_serve_fixture_smoke(capsys):
    assert SERVE_FIXTURE.is_file(), "regenerate per tests/data/README.md"
    assert trace_main([str(SERVE_FIXTURE), "--serve"]) == 0
    out = capsys.readouterr().out
    assert "stage crashes/restarts:" in out
    assert "checkpoints:" in out
    assert "recovered" in out
    # the rollup also rides along in the default summary
    assert trace_main([str(SERVE_FIXTURE)]) == 0
    assert "serve:" in capsys.readouterr().out


def test_serve_fixture_degraded_window_recovers():
    report = TraceInspector.from_jsonl(str(SERVE_FIXTURE)).serve_report()
    assert sum(report["stage_crashes"].values()) >= 1
    assert report["checkpoint_writes"] >= 1
    assert report["degraded_episodes"], "chaos fixture must contain a degraded window"
    assert all(e["end"] is not None for e in report["degraded_episodes"])
    assert report["exit"]["code"] == 0


def test_stage_names_resolve_in_timelines(capsys):
    assert trace_main([str(SERVE_FIXTURE), "--node", "pipeline"]) == 0
    out = capsys.readouterr().out
    assert "timeline of node 'pipeline'" in out


def test_queries_report_on_hand_built_trace():
    events = [
        _event(0.0, "queries.cache_miss", op="range", generation=0),
        _event(0.1, "queries.plan", op="range", backend="mtree", reason="cheapest"),
        _event(0.2, "queries.execute", op="range", backend="mtree", estimated=100.0, actual=120),
        _event(0.3, "queries.cache_hit", op="range", backend="mtree", generation=1),
        _event(0.4, "queries.cache_miss", op="knn", generation=1),
        _event(0.5, "queries.plan", op="knn", backend="flood", reason="cheapest"),
        _event(0.6, "queries.execute", op="knn", backend="flood", estimated=200.0, actual=100),
    ]
    report = TraceInspector(events).queries_report()
    assert report["executed"] == {"range": 1, "knn": 1}
    assert report["plans"] == {"mtree": 1, "flood": 1}
    assert report["cache_hits"] == {"range": 1}
    assert report["cache_misses"] == {"range": 1, "knn": 1}
    assert report["estimate_ratio_mean"] == pytest.approx(0.85)
    assert report["estimate_ratio_worst"] == pytest.approx(1.2)
    assert report["generations"] == [0, 1]
    text = TraceInspector(events).queries_text()
    assert "plans: flood=1, mtree=1" in text
    assert "1 hits, 2 misses" in text


def test_queries_report_absent_without_queries_events():
    inspector = TraceInspector([_event(0.0, "msg.send", 1, dst=2)])
    assert inspector.queries_report() is None
    assert "no queries.* events" in inspector.queries_text()


def test_queries_rollup_from_live_planner_trace(tmp_path, capsys):
    from repro.queries.load import ScenarioSpec, WorkloadSpec, build_scenario, generate_workload
    from repro.queries.planner import QueryPlanner
    from repro.queries.result_cache import QueryResultCache

    ctx = build_scenario(ScenarioSpec(n=30, seed=42, delta=0.4))
    tracer = Tracer()
    planner = QueryPlanner(
        ctx["graph"],
        ctx["clustering"],
        ctx["features"],
        ctx["metric"],
        ctx["mtree"],
        ctx["backbone"],
        emit=functools.partial(tracer.emit, 0.0),
        cache=QueryResultCache(),
        generation=lambda: ctx["session"].generation,
    )
    workload = generate_workload(
        sorted(ctx["graph"].nodes, key=repr),
        ctx["features"],
        WorkloadSpec(mix="balanced", queries=12, seed=2),
    )
    for query in workload:
        getattr(planner, query.op)(**query.kwargs())
    trace_path = tmp_path / "queries.jsonl"
    tracer.export_jsonl(str(trace_path))
    assert trace_main([str(trace_path), "--queries"]) == 0
    out = capsys.readouterr().out
    assert "queries:" in out
    assert "executed: 12" in out
