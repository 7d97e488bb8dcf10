"""Tests for the observability layer: tracer ring buffer, JSONL
round-trip, metrics instruments, profiler, and the zero-cost-when-disabled
contract (a traced run changes nothing about the run itself)."""

import json

import numpy as np
import pytest

from repro.core import ELinkConfig, run_elink
from repro.features.metrics import EuclideanMetric
from repro.geometry import grid_topology
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    Tracer,
    current_profiler,
    iter_jsonl,
    profiled,
)
from repro.obs.trace import TraceEvent
from repro.sim import EventKernel, FaultInjector, FaultPlan, Message, Network, ProtocolNode


# ----------------------------------------------------------------------
# Tracer: ring buffer + filters
# ----------------------------------------------------------------------
def test_tracer_emit_and_filter():
    tracer = Tracer()
    tracer.emit(1.0, "msg.send", 3, dst=4, kind="expand")
    tracer.emit(2.0, "msg.deliver", 4, src=3, kind="expand")
    tracer.emit(3.0, "timer.fire", None)
    assert tracer.emitted == 3
    assert tracer.evicted == 0
    sends = list(tracer.events(type="msg.send"))
    assert len(sends) == 1 and sends[0].node == 3
    assert len(list(tracer.events(prefix="msg."))) == 2
    assert len(list(tracer.events(since=2.0, until=2.0))) == 1
    assert tracer.type_counts() == {"msg.send": 1, "msg.deliver": 1, "timer.fire": 1}


def test_tracer_ring_evicts_oldest():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.emit(float(i), "tick", i)
    assert tracer.emitted == 10
    assert tracer.evicted == 6
    kept = [event.node for event in tracer.events()]
    assert kept == [6, 7, 8, 9]


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_trace_event_json_round_trip():
    event = TraceEvent(1.5, "msg.drop", 7, {"reason": "no_route", "dst": 9})
    back = TraceEvent.from_json(event.to_json())
    assert back == event


def test_jsonl_export_round_trip(tmp_path):
    tracer = Tracer()
    tracer.emit(0.0, "node.crash", 2, degree=3)
    tracer.emit(1.0, "msg.send", "a", dst=("b",), feature=np.array([1.0, 2.0]))
    path = tmp_path / "run.jsonl"
    written = tracer.export_jsonl(str(path))
    assert written == 2
    events = Tracer.load_jsonl(str(path))
    assert [event.type for event in events] == ["node.crash", "msg.send"]
    # numpy arrays serialize to lists; tuples come back as lists too.
    assert events[1].data["feature"] == [1.0, 2.0]
    assert events[1].data["dst"] == ["b"]
    streamed = list(iter_jsonl(str(path)))
    assert streamed == events


# ----------------------------------------------------------------------
# Metrics: counters, gauges, histogram bucket edges, registry
# ----------------------------------------------------------------------
def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = Gauge()
    gauge.set(2.5)
    gauge.inc(-0.5)
    assert gauge.value == 2.0


def test_histogram_bucket_edges_are_inclusive_upper():
    hist = Histogram(edges=(1.0, 5.0, 10.0))
    for value in (0.5, 1.0, 1.0001, 5.0, 9.9, 10.0, 11.0, 1e9):
        hist.observe(value)
    # Buckets: <=1, (1,5], (5,10], overflow.  Exactly-on-edge goes in-bucket.
    assert hist.counts == [2, 2, 2, 2]
    assert hist.count == 8
    assert hist.cumulative() == [2, 4, 6, 8]
    assert hist.mean == pytest.approx((0.5 + 1.0 + 1.0001 + 5.0 + 9.9 + 10.0 + 11.0 + 1e9) / 8)


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        Histogram(edges=(5.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(edges=())


def test_time_series_records_pairs():
    series = TimeSeries()
    series.observe(0.0, 1.0)
    series.observe(2.0, 3.0)
    assert series.points == [(0.0, 1.0), (2.0, 3.0)]
    assert series.values() == [1.0, 3.0]


def test_registry_get_or_create_and_type_checks(tmp_path):
    registry = MetricsRegistry()
    counter = registry.counter("msgs")
    assert registry.counter("msgs") is counter
    registry.gauge("depth").set(4)
    hist = registry.histogram("latency", edges=(1.0, 2.0))
    hist.observe(1.5)
    registry.series("rounds").observe(0.0, 1.0)
    with pytest.raises(TypeError):
        registry.gauge("msgs")  # name already bound to a Counter
    with pytest.raises(ValueError):
        registry.histogram("latency", edges=(1.0, 3.0))  # edge mismatch
    snapshot = registry.snapshot()
    assert snapshot["msgs"] == {"type": "counter", "value": 0.0}
    assert snapshot["latency"]["counts"] == [0, 1, 0]
    out = tmp_path / "metrics.json"
    registry.export_json(str(out))
    assert json.loads(out.read_text())["depth"]["value"] == 4.0
    assert registry.names() == ["depth", "latency", "msgs", "rounds"]
    assert "msgs" in registry and len(registry) == 4


# ----------------------------------------------------------------------
# Profiler: ambient activation, recording, report
# ----------------------------------------------------------------------
def test_profiled_context_sets_ambient_profiler():
    assert current_profiler() is None
    with profiled() as profiler:
        assert current_profiler() is profiler
        kernel = EventKernel()
        assert kernel.profiler is profiler
    assert current_profiler() is None


def test_profiler_records_kernel_callbacks():
    with profiled() as profiler:
        kernel = EventKernel()
        seen = []
        kernel.schedule(1.0, seen.append, "x")
        kernel.schedule(2.0, seen.append, "y")
        kernel.run()
    assert seen == ["x", "y"]
    assert profiler.total_events == 2
    (row,) = profiler.rows()
    name, events, _seconds = row
    assert events == 2 and "append" in name
    report = profiler.report()
    assert "append" in report


# ----------------------------------------------------------------------
# Zero-cost-when-disabled: tracing must not change the run
# ----------------------------------------------------------------------
def _chaos_run(tracer):
    topology = grid_topology(6, 6)
    features = {
        node: np.array([(x + y) / 10.0])
        for node, (x, y) in topology.positions.items()
    }
    config = ELinkConfig(delta=1.0, signalling="explicit", failure_detection=True)
    network = Network(topology.graph.copy(), tracer=tracer)
    plan = FaultPlan().crash(2.0, 21)
    injector = FaultInjector(network, plan)
    result = run_elink(
        topology, features, EuclideanMetric(), config,
        network=network, injector=injector, tracer=tracer,
    )
    return result, network


def test_traced_run_identical_to_untraced():
    plain, plain_net = _chaos_run(None)
    tracer = Tracer()
    traced, traced_net = _chaos_run(tracer)
    assert tracer.emitted > 0
    assert traced.total_messages == plain.total_messages
    assert traced.protocol_time == plain.protocol_time
    assert traced.num_clusters == plain.num_clusters
    assert traced.clustering.assignment == plain.clustering.assignment
    assert traced_net.stats.snapshot() == plain_net.stats.snapshot()


class _Sink(ProtocolNode):
    def __init__(self, node_id, network):
        super().__init__(node_id, network, np.zeros(1))
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def test_untraced_fast_path_has_no_tracer_attached():
    network = Network(grid_topology(2, 2).graph)
    assert network.tracer is None
    assert network.kernel.tracer is None
    nodes = {i: _Sink(i, network) for i in range(4)}
    assert all(node._obs is None for node in nodes.values())
    # The fast path still delivers: no tracer hooks fire, nothing breaks.
    sent = network.send(Message(kind="ping", src=0, dst=1, payload={}))
    network.run()
    assert sent and len(nodes[1].received) == 1


def test_tracer_attach_after_registration_is_rejected_by_contract():
    # Attaching a tracer later is allowed at the network level but nodes
    # cache their tracer at construction: the documented contract is
    # attach-at-construction.  Verify the setter threads to the kernel.
    network = Network(grid_topology(2, 2).graph)
    tracer = Tracer()
    network.tracer = tracer
    assert network.kernel.tracer is tracer
    assert network._tracer is tracer
