"""Tests for the message-passing network layer and protocol node base."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.network as network_module
from repro.geometry import grid_topology
from repro.sim import Message, Network, ProtocolNode
from repro.sim.network import TREE_BUDGET_PER_NODE


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


def test_send_requires_adjacency():
    network, nodes = _line_network()
    with pytest.raises(ValueError, match="adjacency"):
        network.send(Message("feature", 0, 3))


def test_send_delivers_after_one_hop_delay():
    network, nodes = _line_network()
    network.send(Message("feature", 0, 1))
    network.run()
    assert len(nodes[1].received) == 1
    _, arrival = nodes[1].received[0]
    assert arrival == 1.0


def test_route_charges_values_times_hops():
    network, nodes = _line_network()
    hops = network.route(Message("feature", 0, 3, values=4))
    network.run()
    assert hops == 3
    assert network.stats.total_values == 12
    assert nodes[3].received[0][1] == 3.0


def test_route_to_self_is_free():
    network, nodes = _line_network()
    hops = network.route(Message("feature", 1, 1))
    network.run()
    assert hops == 0
    assert network.stats.total_values == 0
    assert len(nodes[1].received) == 1


def test_broadcast_reaches_all_neighbors():
    topology = grid_topology(3, 3)
    network = Network(topology.graph)
    nodes = {v: Recorder(v, network) for v in topology.graph.nodes}
    count = network.broadcast(4, "feature")  # center node
    network.run()
    assert count == 4
    for neighbor in topology.graph.neighbors(4):
        assert len(nodes[neighbor].received) == 1


def test_unregistered_handler_raises():
    graph = nx.path_graph(2)
    network = Network(graph)
    Recorder(0, network)
    network.send(Message("feature", 0, 1))
    with pytest.raises(KeyError, match="no handler"):
        network.run()


def test_register_unknown_node_rejected():
    graph = nx.path_graph(2)
    network = Network(graph)
    with pytest.raises(KeyError):
        network.register(99, object())


def test_hop_distance_uses_shortest_path():
    network, _ = _line_network(5)
    assert network.hop_distance(0, 4) == 4
    assert network.hop_distance(2, 2) == 0


def test_no_path_raises():
    graph = nx.Graph()
    graph.add_nodes_from([0, 1])
    network = Network(graph)
    Recorder(0, network)
    Recorder(1, network)
    with pytest.raises(nx.NetworkXNoPath):
        network.route(Message("feature", 0, 1))


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        Network(nx.Graph())


class Echo(ProtocolNode):
    """Replies to ping with pong via the dispatch mechanism."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network, np.zeros(1))
        self.pongs = 0

    def handle_ping(self, message):
        self.send(message.src, "pong")

    def handle_pong(self, message):
        self.pongs += 1


def test_protocol_node_dispatch():
    graph = nx.path_graph(2)
    network = Network(graph)
    a, b = Echo(0, network), Echo(1, network)
    a.send(1, "ping")
    network.run()
    assert a.pongs == 1


def test_protocol_node_unknown_kind_raises():
    graph = nx.path_graph(2)
    network = Network(graph)
    a, b = Echo(0, network), Echo(1, network)
    a.send(1, "mystery")
    with pytest.raises(NotImplementedError, match="mystery"):
        network.run()


def test_protocol_node_timer():
    graph = nx.path_graph(2)
    network = Network(graph)
    node = Echo(0, network)
    Echo(1, network)
    fired = []
    node.set_timer(3.0, lambda: fired.append(node.now))
    network.run()
    assert fired == [3.0]


def test_message_validation():
    with pytest.raises(ValueError):
        Message("feature", 0, 1, values=0)
    message = Message("expand", 0, 1)
    assert message.category == "clustering"
    assert Message("phase1", 0, 1).category == "sync"
    assert Message("unknown_kind", 0, 1).category == "data"


def test_stats_snapshot_and_diff():
    network, _ = _line_network()
    network.send(Message("expand", 0, 1, values=2))
    snap = network.stats.snapshot()
    network.send(Message("expand", 1, 2, values=2))
    network.run()
    diff = network.stats.diff(snap)
    assert diff.total_values == 2
    assert network.stats.total_values == 4
    assert network.stats.category_values("clustering") == 4


def test_stats_reset():
    network, _ = _line_network()
    network.send(Message("feature", 0, 1))
    network.stats.reset()
    assert network.stats.total_values == 0
    assert network.stats.total_packets == 0


def test_stats_rejects_zero_hops():
    network, _ = _line_network()
    with pytest.raises(ValueError):
        network.stats.record(Message("feature", 0, 1), hops=0)


# ----------------------------------------------------------------------
# fast path vs general path
# ----------------------------------------------------------------------
def _grid_network(**kwargs):
    topology = grid_topology(4, 4)
    network = Network(topology.graph, **kwargs)
    nodes = {v: Recorder(v, network) for v in topology.graph.nodes}
    return network, nodes


def _drive_mixed_traffic(network):
    """A deterministic workload exercising send, route and broadcast."""
    network.send(Message("expand", 0, 1, values=2))
    network.route(Message("query", 0, 15, values=3))
    network.broadcast(5, "phase1")
    network.run()


def _delivery_trace(nodes):
    return {
        v: [(m.kind, m.src, m.values, t) for m, t in node.received]
        for v, node in nodes.items()
    }


def test_fast_path_matches_general_path():
    """The zero-overhead path (jitter=0, no loss) must be observationally
    identical to the general per-hop path.  A zero-probability loss model
    forces the general machinery (per-hop charging, per-attempt delays)
    without changing any outcome, so every counter and arrival time must
    agree bit for bit."""
    from repro.sim.radio import LossyLinkModel

    fast_net, fast_nodes = _grid_network()
    assert fast_net._fast
    general_net, general_nodes = _grid_network(loss=LossyLinkModel(0.0))
    assert not general_net._fast

    _drive_mixed_traffic(fast_net)
    _drive_mixed_traffic(general_net)

    assert fast_net.stats.packets_by_kind == general_net.stats.packets_by_kind
    assert fast_net.stats.values_by_kind == general_net.stats.values_by_kind
    assert fast_net.stats.values_by_category == general_net.stats.values_by_category
    assert fast_net.stats.total_packets == general_net.stats.total_packets
    assert _delivery_trace(fast_nodes) == _delivery_trace(general_nodes)
    assert fast_net.kernel.now == general_net.kernel.now


def test_jitter_deterministic_per_seed():
    """Batched jitter sampling stays reproducible: same seed, same arrivals."""
    traces = []
    for _ in range(2):
        network, nodes = _grid_network(jitter=0.5, jitter_seed=7)
        _drive_mixed_traffic(network)
        traces.append(_delivery_trace(nodes))
    assert traces[0] == traces[1]
    network, nodes = _grid_network(jitter=0.5, jitter_seed=8)
    _drive_mixed_traffic(network)
    assert _delivery_trace(nodes) != traces[0]


# ----------------------------------------------------------------------
# hop counts: per-source distance trees
# ----------------------------------------------------------------------
def _tree_size(network):
    return sum(len(depths) for depths, _, _ in network._trees.values())


def test_distance_trees_stay_under_budget_all_to_one():
    """Every node routes once to one corner of a 30x30 grid.  Unbounded,
    the trees would hold ~N²/2 distances; the budget clears them instead,
    and every hop count still equals networkx's."""
    graph = grid_topology(30, 30).graph
    network = Network(graph)
    corner = next(iter(graph.nodes))
    expected = nx.single_source_shortest_path_length(graph, corner)
    budget = TREE_BUDGET_PER_NODE * graph.number_of_nodes()
    trips = 0
    for src in graph.nodes:
        before = network._tree_size
        assert network.hop_distance(src, corner) == expected[src]
        assert network._tree_size == _tree_size(network) <= budget
        trips += network._tree_size < before
    assert trips > 0  # the pattern really exceeds the budget


def test_distance_trees_resume_and_answer_both_orientations():
    network, _ = _line_network(8)
    assert network.hop_distance(0, 2) == 2
    depths, frontier, depth = network._trees[0]
    assert (len(depths), frontier, depth) == (3, [2], 2)  # stopped at dst's level
    assert network.hop_distance(0, 6) == 6  # resumed, not restarted
    assert network._trees[0][2] == 6
    assert network.hop_distance(5, 0) == 5  # answered from 0's tree
    assert 5 not in network._trees
    network.remove_edge(6, 7)
    assert network._trees == {} and network._tree_size == 0


_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["crash", "recover", "cut", "mend", "hand_add", "hand_cut"]),
        st.integers(0, 64),
        st.integers(0, 64),
    ),
    max_size=16,
)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    n=st.integers(2, 10),
    parents=st.lists(st.integers(0, 10**6), min_size=9, max_size=9),
    extra=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=10),
    budget=st.sampled_from([TREE_BUDGET_PER_NODE, 1]),
    operations=_OPERATIONS,
)
def test_hop_counts_match_networkx_under_mutation(n, parents, extra, budget, operations):
    """Random connected graphs under faults and hand mutations followed by
    invalidate_paths(), queried between every two operations: hop counts
    equal networkx's on the live graph in both orientations; an
    unreachable pair raises NetworkXNoPath before any fault and is a
    structured drop after one; an id the network never had (``n``) raises
    NodeNotFound throughout.

    Operands index the current candidates (live nodes, edges, crashed
    nodes, severed links), so most operations change the topology."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((i, parents[i - 1] % i) for i in range(1, n))
    graph.add_edges_from((a % n, b % n) for a, b in extra if a % n != b % n)
    with mock.patch.object(network_module, "TREE_BUDGET_PER_NODE", budget):
        network = Network(graph)
        live = network.graph
        saved: dict[int, tuple] = {}
        cut: list[tuple[int, int]] = []
        faulted = False
        _check_all_pairs(network, n, faulted, 0, 0, budget)
        for op, a, b in operations:
            nodes, edges = sorted(live.nodes), sorted(live.edges)
            if op == "crash" and nodes:
                node = nodes[a % len(nodes)]
                saved[node] = network.remove_node(node)
                faulted = True
            elif op == "recover" and saved:
                node = sorted(saved)[a % len(saved)]
                network.restore_node(node, saved.pop(node))
            elif op == "cut" and edges:
                u, v = edges[a % len(edges)]
                assert network.remove_edge(u, v)
                cut.append((u, v))
                faulted = True
            elif op == "mend" and cut:
                i = a % len(cut)
                if network.restore_edge(*cut[i]):  # False while an endpoint is dead
                    cut.pop(i)
            elif op == "hand_add" and len(nodes) > 1:
                u, v = nodes[a % len(nodes)], nodes[b % len(nodes)]
                if u != v and (u, v) not in cut and (v, u) not in cut:
                    live.add_edge(u, v)
                    network.invalidate_paths()
            elif op == "hand_cut" and edges:
                live.remove_edge(*edges[a % len(edges)])
                network.invalidate_paths()
            _check_all_pairs(network, n, faulted, a, b, budget)


def _check_all_pairs(network, n, faulted, a, b, budget):
    """Query every ordered pair of ids ``0..n``, sources and destinations
    in orders rotated by *a* and *b*, so trees resume part-grown, answer
    in reverse, and would go stale if a mutation failed to clear them."""
    expected = dict(nx.all_pairs_shortest_path_length(network.graph))
    for i in range(n + 1):
        src = (a + i) % (n + 1)
        for k in range(n + 1):
            dst = (b + k) % (n + 1)
            _check_query(network, src, dst, n, faulted, expected)
    assert network._tree_size == _tree_size(network)
    assert network._tree_size <= budget * n  # the nodes the network was built with


def _check_query(network, src, dst, unknown, faulted, expected):
    message = Message("query", src, dst)
    if unknown in (src, dst):
        with pytest.raises(nx.NodeNotFound):
            network.hop_distance(src, dst)
        with pytest.raises(nx.NodeNotFound):
            network.route(message)
        return
    live = network.graph
    hops = expected.get(src, {}).get(dst)
    if hops is not None:
        assert network.hop_distance(src, dst) == hops
        assert network.route(message) == hops
        return
    with pytest.raises(nx.NetworkXNoPath):
        network.hop_distance(src, dst)
    if not faulted:
        with pytest.raises(nx.NetworkXNoPath):
            network.route(message)
        return
    drops = network.stats.drops_by_reason.copy()
    assert network.route(message) == -1
    reason = (
        "dead_source" if src not in live
        else "dead_destination" if dst not in live
        else "no_route"
    )
    drops[reason] += 1
    assert network.stats.drops_by_reason == drops


def test_invalidate_paths_after_topology_change():
    graph = nx.path_graph(4)
    network = Network(graph)
    nodes = {i: Recorder(i, network) for i in range(4)}
    assert network.hop_distance(0, 3) == 3
    graph.add_edge(0, 3)
    # Sends read the graph's own neighbour dicts: the new edge works at once.
    assert network.send(Message("feature", 0, 3))
    network.run()
    assert len(nodes[3].received) == 1
    # Distance trees are stale until the caller drops them.
    assert network.hop_distance(0, 3) == 3
    network.invalidate_paths()
    assert network.hop_distance(0, 3) == 1


# ----------------------------------------------------------------------
# one adjacency: the graph's own neighbour dicts
# ----------------------------------------------------------------------
def test_network_reads_the_graphs_own_adjacency():
    graph = grid_topology(3, 3).graph
    network = Network(graph)
    assert network._adj is graph._adj
    assert network.neighbors(4) == tuple(graph.adj[4])


def test_adjacency_patching_matches_full_rebuild():
    """Random crash/restore/link-flap sequences: after every operation each
    neighbour row equals, in order, the row of a plain graph that received
    the same changes through networkx calls in lockstep."""
    import random

    rng = random.Random(99)
    network = Network(grid_topology(6, 6).graph)
    ref = grid_topology(6, 6).graph
    removed_nodes = {}
    removed_edges = set()

    for _ in range(120):
        op = rng.choice(["crash", "restore", "down", "up"])
        if op == "crash":
            alive = list(ref.nodes)
            if len(alive) > 2:
                victim = rng.choice(alive)
                removed_nodes[victim] = network.remove_node(victim)
                assert removed_nodes[victim] == tuple(ref.adj[victim])
                ref.remove_node(victim)
        elif op == "restore" and removed_nodes:
            victim = rng.choice(sorted(removed_nodes))
            neighbours = [v for v in removed_nodes.pop(victim) if v in ref]
            network.restore_node(victim, neighbours)
            ref.add_node(victim)
            ref.add_edges_from((victim, v) for v in neighbours)
        elif op == "down":
            edges = list(ref.edges)
            if edges:
                u, v = rng.choice(edges)
                assert network.remove_edge(u, v)
                ref.remove_edge(u, v)
                removed_edges.add((u, v))
        elif op == "up" and removed_edges:
            u, v = rng.choice(sorted(removed_edges))
            if u in ref and v in ref:
                assert network.restore_edge(u, v)
                ref.add_edge(u, v)
            removed_edges.discard((u, v))
        assert list(network.graph) == list(ref)
        for node in ref:
            assert tuple(network.neighbors(node)) == tuple(ref.adj[node]), node

    for gone in removed_nodes:
        assert gone not in network.graph
        assert not network.is_alive(gone)


def test_adjacency_patch_preserves_neighbour_order():
    network = Network(grid_topology(4, 4).graph.copy())
    before = tuple(network.neighbors(5))
    assert network.remove_edge(5, 6)
    after = tuple(network.neighbors(5))
    # removal keeps the surviving neighbours' order
    assert after == tuple(v for v in before if v != 6)
    network.restore_edge(5, 6)
    # restoration appends, matching graph.adj insertion order
    assert tuple(network.neighbors(5)) == after + (6,)
    fresh = Network(network.graph.copy())
    assert tuple(network.neighbors(5)) == tuple(fresh.neighbors(5))


def test_restore_node_keeps_a_self_loop():
    """A crashed node's self-loop comes back with its other links: the node
    is alive again before its saved row is re-attached."""
    graph = nx.Graph([(0, 1), (1, 1), (1, 2)])
    network = Network(graph)
    saved = network.remove_node(1)
    assert saved == (0, 1, 2)  # the adjacency row, in insertion order
    network.restore_node(1, saved)
    assert list(graph.adj[1]) == [0, 1, 2]
    assert network.neighbors(1) == (0, 1, 2)
    assert network.is_alive(1)
