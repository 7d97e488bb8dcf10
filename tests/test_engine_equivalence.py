"""Simulation-engine certificates (DESIGN.md §8 determinism contract).

Golden trace digests pin the network's delivery order, stats totals and
trace streams — fault-injected runs included, where cohort batching and
CSR patching are under the most pressure — to the bytes the per-message
reference engine produced before it was folded into :class:`Network`.
The vectorised round processor, which runs implicit signalling only, is
diffed against the per-message handlers; explicit, unordered, chaos and
traced runs must fall back to those handlers.
"""

import hashlib

import networkx as nx
import numpy as np
import pytest

import repro.core.elink_vec as elink_vec
from repro.core import ELinkConfig, run_elink
from repro.core.elink import compute_kappa
from repro.datasets.synthetic import generate_synthetic_dataset, stream_measurements
from repro.features import EuclideanMetric
from repro.geometry import Topology, grid_topology, random_geometric_topology
from repro.geometry.quadtree import QuadTreeDecomposition
from repro.obs.trace import Tracer
from repro.sim import Network
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.stats import MessageStats
from repro.verify.harness import ScenarioSpec, build_scenario, run_scenario
from repro.verify.replay import replay_check
from repro.verify.runtime import verification


def _topology(kind: str) -> Topology:
    if kind == "grid":
        return grid_topology(6, 6)
    return random_geometric_topology(80, seed=11)


def _features(topology: Topology) -> dict:
    return {
        node: np.array([(x + 2 * y) / 5.0])
        for node, (x, y) in topology.positions.items()
    }


# ----------------------------------------------------------------------
# golden traces: clean runs (δ=0.6) and two chaos scenarios
# ----------------------------------------------------------------------
#: scenario -> (sha256 of the ``Tracer.export_jsonl`` bytes, events,
#: clusters, messages).  Recorded on the per-message dict-adjacency engine
#: with a binary-heap kernel; any change to delivery order, stats or
#: trace content shows up here.
GOLDEN_TRACES = {
    "grid-implicit": (
        "1be0983f63471887cddc79cc9f6b56e66f895bda785dd9fe6fe8abaed6658215", 313, 7, 120,
    ),
    "grid-explicit": (
        "46b6955ce04d5bf992f7785a90317d871be0ef467c59a173dc79f28420ce2f48", 794, 7, 356,
    ),
    "geometric-implicit": (
        "bac6ee0f7f304896081baf00b741d1763de01f024b7081c071234c87019404da", 734, 29, 286,
    ),
    "geometric-explicit": (
        "99149dfdb5432a33e71c89c92e09a440795f70a6bf30240fcf4c2cbdd75b87da", 2031, 29, 1275,
    ),
    "crash5-churn2-explicit": (
        "916c636e6a7bd9f80a745d236022f3dd4edf22f35410993019b19e90f2780062", 1667, 3, 582,
    ),
    "crash10-implicit": (
        "86c0c7f9ba840ae0d032b466564ada1b8b1dfa82bc06539717f651a1a7fb9c13", 429, 5, 156,
    ),
}

_CHAOS_SPECS = {
    "crash5-churn2-explicit": ScenarioSpec(
        crash_fraction=0.05, churn_events=2, signalling="explicit"
    ),
    "crash10-implicit": ScenarioSpec(
        crash_fraction=0.1, churn_events=0, signalling="implicit"
    ),
}


def _golden_run(scenario: str, tracer: Tracer):
    if scenario in _CHAOS_SPECS:
        return run_scenario(_CHAOS_SPECS[scenario], tracer=tracer)
    kind, signalling = scenario.split("-")
    topology = _topology(kind)
    network = Network(topology.graph.copy())
    return run_elink(
        Topology(network.graph, dict(topology.positions)),
        _features(topology),
        EuclideanMetric(),
        ELinkConfig(delta=0.6, signalling=signalling),
        network=network,
        tracer=tracer,
    )


@pytest.mark.parametrize("scenario", list(GOLDEN_TRACES))
def test_trace_matches_golden_digest(scenario, tmp_path):
    tracer = Tracer()
    result = _golden_run(scenario, tracer)
    path = tmp_path / "trace.jsonl"
    events = tracer.export_jsonl(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest, events, result.num_clusters, result.total_messages) == (
        GOLDEN_TRACES[scenario]
    )


# ----------------------------------------------------------------------
# the chaos_1000 benchmark deployment: untraced, traced and verified
# ----------------------------------------------------------------------
#: Outputs of the benchmark's chaos_1000 deployment (seed 3): clusters,
#: messages, drops by reason, dead nodes, kernel pushes, kernel events.
CHAOS_1000_PIN = (
    792, 52_144, {"no_route": 202, "dead_destination": 6}, 50, 6_824, 6_823,
)


@pytest.fixture(scope="module")
def chaos_1000_dataset():
    dataset = generate_synthetic_dataset(1_000, seed=3, readings=200)
    stream_measurements(dataset, 50, seed=3)
    return dataset


def _chaos_1000_run(dataset, tracer=None):
    """One explicit, failure-detecting run with 5% crashes and 50 link
    flaps in the last expansion rounds (40-55κ), quadtree root protected."""
    graph = dataset.topology.graph.copy()
    topology = Topology(graph, dict(dataset.topology.positions))
    config = ELinkConfig(delta=0.05, signalling="explicit", failure_detection=True)
    kappa = compute_kappa(graph.number_of_nodes(), config.gamma)
    window = (40.0 * kappa, 55.0 * kappa)
    quadtree = QuadTreeDecomposition(topology)
    network = Network(graph)
    plan = FaultPlan.random(
        sorted(graph.nodes),
        seed=3,
        crash_fraction=0.05,
        crash_window=window,
        churn_edges=sorted(graph.edges),
        churn_events=50,
        churn_window=window,
        churn_downtime=2.0,
        protected=(quadtree.root,),
    )
    result = run_elink(
        topology, dataset.features, dataset.metric(), config,
        quadtree=quadtree, network=network,
        injector=FaultInjector(network, plan), tracer=tracer,
    )
    return (
        result.num_clusters,
        result.total_messages,
        dict(result.stats.drops_by_reason),
        len(network.dead_nodes),
        network.kernel.pushes,
        network.kernel.events_executed,
    )


@pytest.mark.parametrize("mode", ["untraced", "traced", "verified"])
def test_chaos_1000_handler_outputs_pinned(chaos_1000_dataset, mode):
    """The handler path's delivery order, stats and kernel traffic on the
    benchmark's chaos deployment do not depend on tracing or verification."""
    if mode == "verified":
        with verification("full"):
            outputs = _chaos_1000_run(chaos_1000_dataset)
    else:
        tracer = Tracer(capacity=1) if mode == "traced" else None
        outputs = _chaos_1000_run(chaos_1000_dataset, tracer)
    assert outputs == CHAOS_1000_PIN


def test_array_engine_replay_deterministic():
    report = replay_check(ScenarioSpec(crash_fraction=0.05, churn_events=2))
    assert report.identical, str(report)
    assert report.events > 0


# ----------------------------------------------------------------------
# cohort batching must not change delivery to crashed nodes
# ----------------------------------------------------------------------
def test_cohort_recheck_of_crashed_recipients(small_grid):
    """A handler crashing a later cohort member must suppress its delivery."""

    class Crasher:
        def __init__(self, network, victim):
            self.network = network
            self.victim = victim
            self.delivered = []

        def handle_message(self, message):
            self.delivered.append(message.dst)
            if message.dst != self.victim and self.network.is_alive(self.victim):
                self.network.remove_node(self.victim)

    network = Network(small_grid.graph.copy())
    neighbours = list(network.neighbors(0))
    victim = neighbours[-1]
    handler = Crasher(network, victim)
    for node in network.graph.nodes:
        network.register(node, handler)
    network.broadcast(0, "feature")
    network.run()
    # The first recipient crashes the victim; every other copy lands, and
    # the victim's copy (already charged at send) becomes a drop.
    assert handler.delivered == neighbours[:-1]
    assert network.stats.total_packets == len(neighbours)
    assert network.stats.drops_by_reason == {"dead_destination": 1}


# ----------------------------------------------------------------------
# vectorised round processor vs per-message handlers (DESIGN.md §8.2)
# ----------------------------------------------------------------------
def _vec_summary(result):
    return (
        result.clustering.assignment,
        result.clustering.parent,
        result.stats.snapshot(),
        result.completion_time,
        result.protocol_time,
        result.total_switches,
        result.repaired_components,
    )


def _vec_run(topology, signalling):
    network = Network(topology.graph.copy())
    return run_elink(
        Topology(network.graph, dict(topology.positions)),
        _features(topology),
        EuclideanMetric(),
        ELinkConfig(delta=0.6, signalling=signalling),
        network=network,
    )


def _on_handlers(monkeypatch, run):
    """``run()`` with the batch path declined: the per-message handlers."""
    with monkeypatch.context() as patch:
        patch.setattr(elink_vec, "try_run_vectorized", lambda *args, **kwargs: None)
        return run()


def _spy_vectorizer(monkeypatch):
    """Wrap try_run_vectorized to record whether it engaged."""
    engaged = []
    real = elink_vec.try_run_vectorized

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        engaged.append(out is not None)
        return out

    monkeypatch.setattr(elink_vec, "try_run_vectorized", spy)
    return engaged


@pytest.mark.parametrize("topology_kind", ["grid", "geometric"])
@pytest.mark.parametrize("signalling", ["implicit"])
def test_vectorized_rounds_identical_to_handlers(topology_kind, signalling, monkeypatch):
    topology = _topology(topology_kind)
    handler = _on_handlers(monkeypatch, lambda: _vec_run(topology, signalling))
    engaged = _spy_vectorizer(monkeypatch)
    batched = _vec_run(topology, signalling)
    assert engaged == [True]  # the batch path really ran, not a fallback
    assert _vec_summary(handler) == _vec_summary(batched)


@pytest.mark.parametrize("signalling", ["explicit", "unordered"])
def test_batch_engine_declines_all_but_implicit_signalling(signalling):
    """Explicit and unordered runs are handler runs: the gate declines
    them before queueing a kernel entry or charging a message."""
    topology = _topology("grid")
    network = Network(topology.graph)
    declined = elink_vec.try_run_vectorized(
        topology, _features(topology), EuclideanMetric(),
        ELinkConfig(delta=0.6, signalling=signalling),
        quadtree=QuadTreeDecomposition(topology), network=network, injector=None,
    )
    assert declined is None
    assert network.kernel.pending == 0 and network.kernel.pushes == 0
    assert network.stats == MessageStats()


def test_chaos_falls_back_to_handler_path_identically(monkeypatch):
    """With a fault injector armed, the legality gate must decline the
    batch path, and the run must match one forced onto the handlers."""

    def chaos_run():
        spec = ScenarioSpec(crash_fraction=0.05)
        topology, features, metric, config, quadtree, network, injector = (
            build_scenario(spec)
        )
        result = run_elink(
            topology, features, metric, config,
            quadtree=quadtree, network=network, injector=injector,
        )
        return _vec_summary(result)

    handler = _on_handlers(monkeypatch, chaos_run)
    engaged = _spy_vectorizer(monkeypatch)
    assert chaos_run() == handler
    assert engaged == [False]  # the gate was asked and declined


def test_traced_runs_stay_on_handler_path(monkeypatch):
    """A tracer forces the per-message handlers (so traced streams carry
    every message event); the batch path must decline."""
    engaged = _spy_vectorizer(monkeypatch)
    topology = _topology("grid")
    tracer = Tracer()
    network = Network(topology.graph.copy())
    run_elink(
        Topology(network.graph, dict(topology.positions)),
        _features(topology),
        EuclideanMetric(),
        ELinkConfig(delta=0.6),
        network=network,
        tracer=tracer,
    )
    assert engaged == [False]
    assert sum(1 for _ in tracer.events()) > 0


# ----------------------------------------------------------------------
# the batch engine's feature column
# ----------------------------------------------------------------------
def _final_state_spy(monkeypatch):
    """Wrap try_run_vectorized to record what it returned."""
    returned = []
    real = elink_vec.try_run_vectorized

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(elink_vec, "try_run_vectorized", spy)
    return returned


def _feature_run(topology, features, signalling="implicit"):
    return run_elink(
        topology, features, EuclideanMetric(),
        ELinkConfig(delta=0.6, signalling=signalling), network=Network(topology.graph),
    )


_FEATURE_FORMS = {
    "float64": lambda value: np.array([value]),
    "list": lambda value: [value],
    "float32": lambda value: np.array([value], dtype=np.float32),
}


@pytest.mark.parametrize("signalling", ["implicit"])
@pytest.mark.parametrize("form", list(_FEATURE_FORMS))
def test_batch_engine_accepts_1d_feature_forms(form, signalling, monkeypatch):
    topology = _topology("geometric")
    make = _FEATURE_FORMS[form]
    features = {v: make(float(f[0])) for v, f in _features(topology).items()}
    handler = _on_handlers(monkeypatch, lambda: _feature_run(topology, features, signalling))
    returned = _final_state_spy(monkeypatch)
    batched = _feature_run(topology, features, signalling)
    (end,) = returned
    assert end is not None  # the batch path ran
    assert _vec_summary(batched) == _vec_summary(handler)
    for node, feature in zip(end.nodes, end.features):
        if form == "float64":
            assert feature is features[node]  # the caller's own objects
        else:
            assert type(feature) is np.ndarray and feature.dtype == np.float64
            assert feature.tolist() == np.asarray(features[node], dtype=np.float64).tolist()


@pytest.mark.parametrize("shape", ["2-d", "mixed"])
def test_batch_engine_declines_non_1d_features(shape):
    topology = _topology("geometric")
    if shape == "2-d":
        features = {v: np.array([x, y]) for v, (x, y) in topology.positions.items()}
    else:  # one node's feature is 2-d, every other one 1-d
        features = _features(topology)
        features[list(features)[-1]] = np.array([0.5, 0.5])
    network = Network(topology.graph)
    quadtree = QuadTreeDecomposition(topology)
    declined = elink_vec.try_run_vectorized(
        topology, features, EuclideanMetric(), ELinkConfig(delta=0.6),
        quadtree=quadtree, network=network, injector=None,
    )
    assert declined is None
    assert network.kernel.pending == 0 and network.stats.total_packets == 0


def test_batch_engine_maps_quadtree_rows_onto_its_own_node_order(monkeypatch):
    # The quadtree indexes one node order and the network graph lists the
    # same nodes in another: the batch engine reaches the quadtree's rows
    # through its own index and matches the handler engine.
    topology = _topology("geometric")
    quadtree = QuadTreeDecomposition(topology)
    graph = nx.Graph()
    graph.add_nodes_from(sorted(topology.graph.nodes, key=lambda v: -v))
    graph.add_edges_from(topology.graph.edges)
    reordered = Topology(graph, dict(topology.positions))
    features = _features(topology)

    def run():
        return run_elink(
            reordered, features, EuclideanMetric(), ELinkConfig(delta=0.6),
            quadtree=quadtree, network=Network(graph),
        )

    handler = _on_handlers(monkeypatch, run)
    returned = _final_state_spy(monkeypatch)
    batched = run()
    (end,) = returned
    assert end is not None and list(end.nodes) != quadtree.nodes
    assert _vec_summary(batched) == _vec_summary(handler)


def test_batch_engine_rejects_a_network_node_outside_the_quadtree():
    topology = _topology("geometric")
    features = _features(topology)
    graph = topology.graph.copy()
    graph.add_edge(0, "outside")
    features["outside"] = np.array([0.0])
    with pytest.raises(KeyError, match="outside"):
        run_elink(
            topology, features, EuclideanMetric(), ELinkConfig(delta=0.6),
            network=Network(graph),
        )
