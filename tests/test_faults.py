"""Tests for fault injection, structured delivery failures, and the
self-healing ELink repair layer."""

import networkx as nx
import numpy as np
import pytest

from repro.core import ELinkConfig, run_elink, validate_clustering
from repro.core.elink import ELinkNode, compute_kappa
from repro.features.metrics import EuclideanMetric
from repro.geometry import grid_topology
from repro.sim import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    Message,
    Network,
    ProtocolNode,
)


class Recorder(ProtocolNode):
    """Collects every delivered message with its arrival time."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network, np.zeros(1))
        self.received = []

    def handle_message(self, message):
        self.received.append((message, self.now))


def _line_network(n=4):
    graph = nx.path_graph(n)
    network = Network(graph)
    nodes = {i: Recorder(i, network) for i in range(n)}
    return network, nodes


# ----------------------------------------------------------------------
# FaultPlan: declarative schedules
# ----------------------------------------------------------------------
def test_plan_builders_chain_and_sort():
    plan = FaultPlan().crash(5.0, 1).link_down(2.0, 0, 1).crash(2.0, 3)
    assert not plan.empty
    times = [event.time for event in plan.sorted_events()]
    assert times == [2.0, 2.0, 5.0]
    # Ties keep insertion order.
    assert plan.sorted_events()[0].action == "link_down"


def test_fault_event_validation():
    with pytest.raises(ValueError, match="action"):
        FaultEvent(1.0, "meteor", 3)
    with pytest.raises(ValueError, match="time"):
        FaultEvent(-1.0, "crash", 3)


def test_random_plan_is_deterministic():
    nodes = list(range(50))
    edges = [(i, i + 1) for i in range(49)]
    kwargs = dict(
        seed=11,
        crash_fraction=0.2,
        crash_window=(1.0, 9.0),
        churn_edges=edges,
        churn_events=5,
    )
    a = FaultPlan.random(nodes, **kwargs)
    b = FaultPlan.random(nodes, **kwargs)
    assert a.events == b.events
    c = FaultPlan.random(nodes, **dict(kwargs, seed=12))
    assert a.events != c.events


def test_random_plan_respects_protected_and_bounds():
    nodes = list(range(20))
    plan = FaultPlan.random(
        nodes, seed=0, crash_fraction=0.5, crash_window=(2.0, 3.0), protected=(0, 1)
    )
    crashed = [event.target for event in plan.events]
    assert 0 not in crashed and 1 not in crashed
    assert len(crashed) == 9  # 50% of the 18 eligible
    assert all(2.0 <= event.time <= 3.0 for event in plan.events)
    with pytest.raises(ValueError, match="crash_fraction"):
        FaultPlan.random(nodes, seed=0, crash_fraction=1.5)


# ----------------------------------------------------------------------
# FaultInjector: executing plans on the kernel
# ----------------------------------------------------------------------
def test_empty_plan_arms_nothing():
    network, _ = _line_network()
    injector = FaultInjector(network, FaultPlan())
    assert injector.arm() == 0
    assert network.run() == 0.0
    assert not network.dead_nodes


def test_arming_twice_raises():
    network, _ = _line_network()
    injector = FaultInjector(network, FaultPlan())
    injector.arm()
    with pytest.raises(RuntimeError, match="twice"):
        injector.arm()


def test_crash_drops_inflight_and_later_sends():
    network, nodes = _line_network()
    injector = FaultInjector(network, FaultPlan().crash(0.5, 1))
    injector.arm()
    network.send(Message("feature", 0, 1))  # in flight when 1 dies at 0.5
    network.run()
    assert nodes[1].received == []
    assert network.stats.drops_by_reason["dead_destination"] == 1
    assert not network.is_alive(1)
    assert 1 not in network.graph
    # Subsequent traffic to/from the dead node fails structurally.
    assert network.send(Message("feature", 0, 1)) is False
    assert network.route(Message("feature", 2, 0)) == -1  # line is severed
    assert network.stats.drops_by_reason["no_route"] == 1


def test_crash_cancels_owned_timers():
    network, _ = _line_network()
    fired = []
    network.schedule_owned(1, 2.0, fired.append, "victim")
    network.schedule_owned(0, 2.0, fired.append, "survivor")
    FaultInjector(network, FaultPlan().crash(1.0, 1)).arm()
    network.run()
    assert fired == ["survivor"]


def test_recovery_restores_links_to_live_neighbours():
    network, nodes = _line_network(4)
    plan = FaultPlan().crash(1.0, 1).crash(1.0, 2).recover(5.0, 1)
    FaultInjector(network, plan).arm()
    network.run()
    assert network.is_alive(1)
    # 1's link to live 0 is back; the link to still-dead 2 is not.
    assert network.graph.has_edge(0, 1)
    assert not network.graph.has_edge(1, 2)
    assert network.send(Message("feature", 0, 1)) is True
    network.run()
    assert len(nodes[1].received) == 1


def test_link_churn_down_then_up():
    network, nodes = _line_network(3)
    plan = FaultPlan().link_down(1.0, 0, 1).link_up(3.0, 0, 1)
    FaultInjector(network, plan).arm()
    network.run(until=2.0)
    assert network.send(Message("feature", 0, 1)) is False
    assert network.stats.drops_by_reason["link_down"] == 1
    network.run()
    assert network.graph.has_edge(0, 1)
    assert network.send(Message("feature", 0, 1)) is True


def test_partition_cuts_boundary_edges():
    topology = grid_topology(3, 3)
    network = Network(topology.graph.copy())
    region = {0, 1, 2}  # top row of the 3x3 grid
    FaultInjector(network, FaultPlan().partition(1.0, region)).arm()
    network.run()
    for u, v in topology.graph.edges:
        crosses = (u in region) != (v in region)
        assert network.graph.has_edge(u, v) == (not crosses)


def test_repair_latency_keeps_first_note_per_node():
    network, _ = _line_network()
    injector = FaultInjector(network, FaultPlan().crash(1.0, 1))
    injector.arm()
    network.run()
    network.kernel.schedule(2.0, lambda: injector.note_repair("orphan_root", 1, 0))
    network.kernel.schedule(4.0, lambda: injector.note_repair("prune_child", 1, 2))
    network.run()
    assert injector.repair_latencies() == [pytest.approx(2.0)]
    assert len(injector.repairs) == 2


# ----------------------------------------------------------------------
# Network mutators and the path cache (satellite: invalidate_paths footgun)
# ----------------------------------------------------------------------
def test_remove_edge_invalidates_path_cache():
    graph = nx.Graph([(0, 1), (1, 2), (0, 2)])
    network = Network(graph)
    nodes = {i: Recorder(i, network) for i in range(3)}
    assert network.route(Message("feature", 0, 2)) == 1  # warms the cache
    assert network.remove_edge(0, 2)
    assert network.route(Message("feature", 0, 2)) == 2  # rerouted, not cached
    network.run()


def test_restore_edge_semantics():
    graph = nx.Graph([(0, 1), (1, 2)])
    network = Network(graph)
    assert network.restore_edge(0, 1) is False  # never severed
    assert network.remove_edge(0, 1) is True
    assert network.remove_edge(0, 1) is False  # already gone
    assert network.restore_edge(0, 1) is True
    assert network.graph.has_edge(0, 1)
    network.remove_edge(0, 1)
    network.remove_node(0)
    assert network.restore_edge(0, 1) is False  # dead endpoint


def test_remove_node_is_idempotent_and_reports_neighbours():
    network, _ = _line_network(3)
    assert set(network.remove_node(1)) == {0, 2}
    assert network.remove_node(1) == ()
    assert network.dead_nodes == {1}


def test_unmutated_network_still_raises_on_programming_errors():
    network, _ = _line_network(4)
    with pytest.raises(ValueError, match="adjacency"):
        network.send(Message("feature", 0, 3))


@pytest.mark.parametrize("mutated", [False, True], ids=["unmutated", "severed"])
@pytest.mark.parametrize("src, dst", [(0, 99), (77, 0), (77, 3)])
def test_unknown_node_ids_raise_in_both_modes(mutated, src, dst):
    """An id that is neither live nor crashed is a programming error: it
    raises NodeNotFound even after a fault, never a no_route drop."""
    network, _ = _line_network(4)
    if mutated:
        assert network.remove_edge(1, 2)
        network.remove_node(3)  # (77, 3): the known endpoint is dead
    with pytest.raises(nx.NodeNotFound):
        network.route(Message("feature", src, dst))
    with pytest.raises(nx.NodeNotFound):
        network.hop_distance(src, dst)
    assert network.stats.total_drops == 0


def test_fault_unreachable_live_node_is_a_no_route_drop():
    network, _ = _line_network(4)
    assert network.remove_edge(1, 2)
    assert network.route(Message("feature", 0, 3)) == -1
    assert network.stats.drops_by_reason == {"no_route": 1}
    with pytest.raises(nx.NetworkXNoPath):
        network.hop_distance(0, 3)


# ----------------------------------------------------------------------
# Self-healing ELink
# ----------------------------------------------------------------------
def _grid_setup(side):
    topology = grid_topology(side, side)
    features = {
        v: np.array([(topology.positions[v][0] + topology.positions[v][1]) / 10.0])
        for v in topology.graph.nodes
    }
    return topology, features, EuclideanMetric()


def _chaos_run(side, mode, crash_fraction, seed):
    from repro.geometry import Topology

    topology, features, metric = _grid_setup(side)
    config = ELinkConfig(delta=1.0, signalling=mode, failure_detection=True)
    kappa = compute_kappa(topology.num_nodes, config.gamma)
    graph = topology.graph.copy()
    trial = Topology(graph, dict(topology.positions))
    network = Network(graph)
    plan = FaultPlan.random(
        sorted(graph.nodes),
        seed=seed,
        crash_fraction=crash_fraction,
        crash_window=(0.05 * kappa, 0.75 * kappa),
    )
    injector = FaultInjector(network, plan)
    result = run_elink(
        trial, features, metric, config, network=network, injector=injector
    )
    return network, result, features, metric, injector


def test_chaos_explicit_5pct_crash_20x20():
    """Acceptance: 5% crashes on a 20x20 grid — the protocol terminates,
    every survivor sits in exactly one valid δ-cluster, and the repair
    overhead is reported separately."""
    network, result, features, metric, injector = _chaos_run(20, "explicit", 0.05, 3)
    assert len(injector.crashed) == 20
    survivors = set(network.graph.nodes)
    assigned = set(result.clustering.assignment)
    assert assigned == survivors  # everyone surviving, exactly once, no dead
    violations = validate_clustering(
        network.graph, result.clustering, features, metric, 1.0
    )
    assert violations == []
    assert result.repair_messages > 0
    assert result.total_messages >= result.repair_messages
    assert result.stats.total_drops > 0


def test_chaos_run_identical_when_tree_budget_trips(monkeypatch):
    """Clearing the distance trees over budget changes no hop count: an
    explicit chaos run with a budget of one distance per node, which trips
    all the time, matches the default run message for message."""
    import repro.sim.network as network_module

    _, baseline, *_ = _chaos_run(12, "explicit", 0.05, 3)
    trips = []
    hop_distance = Network.hop_distance

    def spy(self, src, dst):
        before = self._tree_size
        hops = hop_distance(self, src, dst)
        if self._tree_size < before:
            trips.append(before)
        return hops

    monkeypatch.setattr(Network, "hop_distance", spy)
    monkeypatch.setattr(network_module, "TREE_BUDGET_PER_NODE", 1)
    _, lowered, *_ = _chaos_run(12, "explicit", 0.05, 3)
    assert trips
    assert lowered.stats == baseline.stats
    assert lowered.stats.total_drops > 0
    assert lowered.clustering.assignment == baseline.clustering.assignment
    assert lowered.clustering.parent == baseline.clustering.parent
    assert lowered.completion_time == baseline.completion_time


def test_chaos_implicit_mode_self_heals():
    network, result, features, metric, _ = _chaos_run(10, "implicit", 0.05, 3)
    assert set(result.clustering.assignment) == set(network.graph.nodes)
    assert not validate_clustering(
        network.graph, result.clustering, features, metric, 1.0
    )


#: (clusters, messages) of churn-only runs that completed before lost
#: ack1s were handled.
CHURN_ONLY_PINS = {9: (5, 237), 13: (5, 230), 19: (5, 457)}


@pytest.mark.parametrize("seed", range(20))
def test_churn_only_run_returns_a_valid_clustering(seed):
    """Link flaps and no crash, explicit signalling, detection off.

    A node the flaps cut off from every start signal and expansion ends
    the run without a cluster; assembly makes it a singleton over the
    post-churn graph (it used to pass a ``None`` root on and raise
    ``KeyError``).  A flap that drops a join's ``ack1`` leaves the parent
    without that child; the child's episode then completes without an
    ``ack2`` (it used to send one and the parent raised ``ack2
    underflow``, in 17 of these 20 plans)."""
    from repro.geometry import QuadTreeDecomposition, Topology

    topology, features, metric = _grid_setup(7)
    config = ELinkConfig(delta=1.0, signalling="explicit")
    kappa = compute_kappa(topology.num_nodes, config.gamma)
    graph = topology.graph.copy()
    trial = Topology(graph, dict(topology.positions))
    quadtree = QuadTreeDecomposition(trial)
    network = Network(graph)
    window = (0.05 * kappa, 0.75 * kappa)
    plan = FaultPlan.random(
        sorted(graph.nodes),
        seed=seed,
        crash_fraction=0.0,
        crash_window=window,
        churn_edges=sorted(graph.edges),
        churn_events=20,
        churn_window=window,
        churn_downtime=2.0,
        protected=(quadtree.root,),
    )
    result = run_elink(
        trial, features, metric, config,
        quadtree=quadtree, network=network, injector=FaultInjector(network, plan),
    )
    assert not network.dead_nodes
    assert set(result.clustering.assignment) == set(network.graph.nodes)
    assert not validate_clustering(network.graph, result.clustering, features, metric, 1.0)
    if seed in CHURN_ONLY_PINS:
        assert (result.num_clusters, result.total_messages) == CHURN_ONLY_PINS[seed]


def test_zero_fault_run_identical_with_and_without_injector():
    """Empty plan + detection off must be byte-identical to no injector."""
    topology, features, metric = _grid_setup(6)
    results = []
    for use_injector in (False, True):
        network = Network(topology.graph.copy())
        injector = FaultInjector(network, FaultPlan()) if use_injector else None
        results.append(
            run_elink(
                topology,
                features,
                metric,
                ELinkConfig(delta=1.0, signalling="explicit"),
                network=network,
                injector=injector,
            )
        )
    base, with_injector = results
    assert base.clustering.assignment == with_injector.clustering.assignment
    assert base.stats.total_values == with_injector.stats.total_values
    assert base.completion_time == with_injector.completion_time
    assert with_injector.repair_messages == 0


def test_injector_network_mismatch_rejected():
    topology, features, metric = _grid_setup(3)
    network = Network(topology.graph.copy())
    other = Network(topology.graph.copy())
    injector = FaultInjector(other, FaultPlan())
    with pytest.raises(ValueError, match="bound to the network"):
        run_elink(
            topology,
            features,
            metric,
            ELinkConfig(delta=1.0),
            network=network,
            injector=injector,
        )


def test_explicit_stall_regression_silent_child(monkeypatch):
    """A live-but-silent child (joins, then never acks completion) must not
    stall the explicit protocol: bounded escalation force-completes."""
    topology, features, metric = _grid_setup(6)
    victim = 7  # interior node, guaranteed to join as somebody's child
    original = ELinkNode.send

    def lossy_send(self, dst, kind, payload=None, *, values=1):
        if self.node_id == victim and kind == "ack2":
            return True  # the ack vanishes; the parent waits forever
        return original(self, dst, kind, payload, values=values)

    monkeypatch.setattr(ELinkNode, "send", lossy_send)
    network = Network(topology.graph.copy())
    result = run_elink(
        topology,
        features,
        metric,
        ELinkConfig(delta=1.0, signalling="explicit", failure_detection=True),
        network=network,
    )
    assert set(result.clustering.assignment) == set(topology.graph.nodes)
    assert not validate_clustering(
        topology.graph, result.clustering, features, metric, 1.0
    )
