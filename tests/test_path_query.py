"""Tests for path queries: clustered safe-tree search vs BFS flooding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import grid_topology, random_geometric_topology
from repro.index import build_mtree
from repro.queries import PathQueryEngine, QueryContext, bfs_flood_path


def _terrain_instance(side=8, seed=0):
    """A grid with a smooth 1-d 'exposure' field rising left to right."""
    topology = grid_topology(side, side)
    rng = np.random.default_rng(seed)
    features = {
        v: np.array([topology.positions[v][0] + rng.normal(0, 0.1)])
        for v in topology.graph.nodes
    }
    return topology, features


def _engine(topology, features, delta=2.0):
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = build_mtree(clustering, features, metric)
    context = QueryContext(clustering, features, metric, mtree)
    return PathQueryEngine(context, topology.graph), metric


def test_path_found_when_safe_corridor_exists():
    topology, features = _terrain_instance()
    engine, metric = _engine(topology, features)
    danger = np.array([10.0])  # danger at the right edge
    # Source and destination on the safe (left) side.
    source, destination = 0, 56  # both column 0
    result = engine.query(source, destination, danger, gamma=5.0)
    assert result.path is not None
    assert result.path[0] == source and result.path[-1] == destination
    for node in result.path:
        assert metric.distance(features[node], danger) >= 5.0


def test_path_edges_are_graph_edges():
    topology, features = _terrain_instance()
    engine, _ = _engine(topology, features)
    result = engine.query(0, 56, np.array([10.0]), gamma=4.0)
    assert result.path is not None
    for a, b in zip(result.path, result.path[1:]):
        assert topology.graph.has_edge(a, b)


def test_no_path_when_destination_unsafe():
    topology, features = _terrain_instance()
    engine, _ = _engine(topology, features)
    # Destination at the right edge is within gamma of the danger.
    result = engine.query(0, 7, np.array([10.0]), gamma=5.0)
    assert result.path is None


def test_no_path_when_source_unsafe():
    topology, features = _terrain_instance()
    engine, _ = _engine(topology, features)
    result = engine.query(7, 0, np.array([10.0]), gamma=5.0)
    assert result.path is None


def test_gamma_zero_everything_safe():
    topology, features = _terrain_instance()
    engine, _ = _engine(topology, features)
    result = engine.query(0, 63, np.array([100.0]), gamma=0.0)
    assert result.path is not None
    assert result.safe_nodes == topology.num_nodes


def test_negative_gamma_rejected():
    topology, features = _terrain_instance()
    engine, _ = _engine(topology, features)
    with pytest.raises(ValueError):
        engine.query(0, 1, np.array([10.0]), gamma=-1.0)


def test_flood_baseline_agrees_and_finds_safe_paths():
    topology, features = _terrain_instance()
    metric = EuclideanMetric()
    danger = np.array([10.0])
    result = bfs_flood_path(topology.graph, features, metric, 0, 56, danger, 5.0)
    assert result.path is not None
    for node in result.path:
        assert metric.distance(features[node], danger) >= 5.0


def test_flood_unsafe_source_returns_none_free():
    topology, features = _terrain_instance()
    result = bfs_flood_path(
        topology.graph, features, EuclideanMetric(), 7, 0, np.array([10.0]), 5.0
    )
    assert result.path is None
    assert result.messages == 0


@given(
    seed=st.integers(min_value=0, max_value=25),
    gamma=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=20, deadline=None)
def test_feasibility_agreement_property(seed, gamma):
    topology = random_geometric_topology(40, seed=seed)
    rng = np.random.default_rng(seed + 5)
    features = {v: np.array([rng.uniform(0, 10)]) for v in topology.graph.nodes}
    engine, metric = _engine(topology, features, delta=3.0)
    danger = np.array([10.0])
    nodes = list(topology.graph.nodes)
    source = nodes[int(rng.integers(len(nodes)))]
    destination = nodes[int(rng.integers(len(nodes)))]
    ours = engine.query(source, destination, danger, gamma)
    flood = bfs_flood_path(topology.graph, features, metric, source, destination, danger, gamma)
    assert (ours.path is None) == (flood.path is None)
    if ours.path is not None:
        for node in ours.path:
            assert metric.distance(features[node], danger) >= gamma - 1e-9


def test_same_source_destination():
    topology, features = _terrain_instance()
    engine, _ = _engine(topology, features)
    result = engine.query(0, 0, np.array([10.0]), gamma=3.0)
    assert result.path == [0]


# ----------------------------------------------------------------------
# maximin (safest) path extension
# ----------------------------------------------------------------------
def test_maximin_path_maximizes_bottleneck():
    from repro.queries import maximin_safe_path

    topology, features = _terrain_instance()
    metric = EuclideanMetric()
    danger = np.array([10.0])
    result = maximin_safe_path(
        topology.graph, features, metric, 0, 56, danger
    )
    assert result.path is not None
    bottleneck = min(metric.distance(features[v], danger) for v in result.path)
    # The optimum: binary-search over thresholds with plain reachability.
    import networkx as nx

    safeties = sorted({metric.distance(features[v], danger) for v in topology.graph.nodes})
    best = None
    for threshold in safeties:
        safe_nodes = [
            v for v in topology.graph.nodes
            if metric.distance(features[v], danger) >= threshold
        ]
        sub = topology.graph.subgraph(safe_nodes)
        if 0 in sub and 56 in sub and nx.has_path(sub, 0, 56):
            best = threshold
    assert bottleneck == pytest.approx(best)


def test_maximin_path_endpoints_and_edges():
    from repro.queries import maximin_safe_path

    topology, features = _terrain_instance()
    result = maximin_safe_path(
        topology.graph, features, EuclideanMetric(), 3, 60, np.array([10.0])
    )
    assert result.path is not None
    assert result.path[0] == 3 and result.path[-1] == 60
    for a, b in zip(result.path, result.path[1:]):
        assert topology.graph.has_edge(a, b)


def test_maximin_path_same_node():
    from repro.queries import maximin_safe_path

    topology, features = _terrain_instance()
    result = maximin_safe_path(
        topology.graph, features, EuclideanMetric(), 5, 5, np.array([10.0])
    )
    assert result.path == [5]


def test_maximin_unreachable_destination():
    from repro.queries import maximin_safe_path
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from([0, 1])
    features = {0: np.array([0.0]), 1: np.array([1.0])}
    result = maximin_safe_path(graph, features, EuclideanMetric(), 0, 1, np.array([9.0]))
    assert result.path is None


# ----------------------------------------------------------------------
# degraded operation: dead representatives, partial coverage
# ----------------------------------------------------------------------
def test_fault_free_path_query_full_coverage():
    topology, features = _terrain_instance()
    engine, metric = _engine(topology, features)
    result = engine.query(0, 56, np.array([10.0]), gamma=5.0)
    assert result.coverage == 1.0


def test_dead_representative_partial_coverage():
    topology, features = _terrain_instance()
    metric = EuclideanMetric()
    clustering = run_elink(
        topology, features, metric, ELinkConfig(delta=2.0)
    ).clustering
    mtree = build_mtree(clustering, features, metric)
    dead = next(r for r in clustering.roots if len(clustering.members(r)) >= 2)
    context = QueryContext(clustering, features, metric, mtree, dead={dead})
    engine = PathQueryEngine(context, topology.graph)
    # gamma=0: every classified node is safe; the dead root's cluster is
    # unclassifiable and counted uncovered.
    result = engine.query(0, 56, np.array([10.0]), gamma=0.0)
    lost = len(clustering.members(dead)) - 1  # the dead node itself aside
    alive = len(topology.graph.nodes) - 1
    assert result.coverage == pytest.approx(1.0 - lost / alive)
    if result.path is not None:
        assert dead not in result.path
        assert not set(result.path) & set(clustering.members(dead))


def test_path_drop_accounting_agrees_between_stats_and_metrics():
    """Dead-root classification drops are mirrored into the registry and
    totalled in ``PathQueryResult.drops`` (see the range-query twin)."""
    from repro.geometry.topology import grid_topology
    from repro.obs import MetricsRegistry

    topology = grid_topology(4, 4)
    # identical features: one cluster per component, so dead roots still
    # leave live endpoints for the query to classify around
    features = {n: np.zeros(1) for n in topology.graph.nodes}
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=1.5)).clustering
    mtree = build_mtree(clustering, features, metric)
    metrics = MetricsRegistry()
    dead = set(clustering.roots)
    alive = [n for n in topology.graph.nodes if n not in dead]
    context = QueryContext(clustering, features, metric, mtree, dead=dead, metrics=metrics)
    engine = PathQueryEngine(context, topology.graph)
    out = engine.query(alive[0], alive[-1], np.zeros(1), 1e6)
    assert out.drops > 0
    assert out.coverage == 0.0  # every root dead: nothing classifiable
    mirrored = sum(
        metrics.counter(name).value
        for name in metrics.names()
        if name.startswith("queries.drops.")
    )
    assert mirrored == out.drops
