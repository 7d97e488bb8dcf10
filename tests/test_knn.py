"""Tests for the k-NN query extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import grid_topology, random_geometric_topology
from repro.index import build_backbone, build_mtree
from repro.queries import (
    KnnQueryEngine,
    PathQueryEngine,
    QueryContext,
    RangeQueryEngine,
    brute_force_knn,
)


def _engine_for(topology, features, delta=1.5):
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    context = QueryContext(clustering, features, metric, mtree, backbone)
    return KnnQueryEngine(context), metric


def test_engines_that_walk_the_backbone_refuse_a_context_without_one():
    topology = grid_topology(4, 4)
    features = {v: np.array([x + 0.5 * y]) for v, (x, y) in topology.positions.items()}
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=1.0)).clustering
    context = QueryContext(clustering, features, metric, build_mtree(clustering, features, metric))
    for engine in (RangeQueryEngine, KnnQueryEngine):
        with pytest.raises(ValueError, match="backbone"):
            engine(context)
    # The path plans never walk the backbone, so the same context serves them.
    result = PathQueryEngine(context, topology.graph).query(0, 15, np.array([100.0]), gamma=1.0)
    assert result.path is not None and result.path[0] == 0 and result.path[-1] == 15


def test_knn_matches_brute_force(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features)
    rng = np.random.default_rng(0)
    for _ in range(15):
        q = rng.normal(size=2)
        k = int(rng.integers(1, 8))
        result = engine.query(q, k, initiator=0)
        truth = brute_force_knn(random_features, metric, q, k)
        assert [node for node, _ in result.neighbors] == [node for node, _ in truth]


def test_knn_distances_sorted(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features)
    result = engine.query(np.zeros(2), 5, initiator=0)
    distances = [d for _, d in result.neighbors]
    assert distances == sorted(distances)


def test_k_one_returns_nearest(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features)
    node = next(iter(random_topology.graph.nodes))
    result = engine.query(random_features[node], 1, initiator=node)
    assert result.neighbors[0][0] == node
    assert result.neighbors[0][1] == pytest.approx(0.0)


def test_k_larger_than_network(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features)
    n = random_topology.num_nodes
    result = engine.query(np.zeros(2), n + 10, initiator=0)
    assert len(result.neighbors) == n


def test_k_validation(random_topology, random_features):
    engine, _ = _engine_for(random_topology, random_features)
    with pytest.raises(ValueError):
        engine.query(np.zeros(2), 0, initiator=0)


def test_knn_visits_fewer_nodes_than_network_on_clustered_data():
    from repro.geometry import grid_topology

    topology = grid_topology(10, 10)
    features = {
        v: np.array([0.2 * topology.positions[v][0]]) for v in topology.graph.nodes
    }
    engine, metric = _engine_for(topology, features, delta=0.5)
    result = engine.query(features[0], 3, initiator=0)
    truth = brute_force_knn(features, metric, features[0], 3)
    # Many nodes tie at distance 0 on this field, so compare distances.
    assert [round(d, 9) for _, d in result.neighbors] == [
        round(d, 9) for _, d in truth
    ]
    assert result.nodes_visited < topology.num_nodes


@given(seed=st.integers(min_value=0, max_value=25), k=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_knn_correctness_property(seed, k):
    topology = random_geometric_topology(40, seed=seed)
    rng = np.random.default_rng(seed + 50)
    features = {v: rng.normal(size=2) for v in topology.graph.nodes}
    engine, metric = _engine_for(topology, features, delta=1.0)
    q = rng.normal(size=2)
    result = engine.query(q, k, initiator=0)
    truth = brute_force_knn(features, metric, q, k)
    assert [n for n, _ in result.neighbors] == [n for n, _ in truth]


# ----------------------------------------------------------------------
# degraded operation: dead nodes, coverage, drop-reason agreement
# ----------------------------------------------------------------------
from repro.obs.metrics import MetricsRegistry


def _fault_knn(topology, features, delta, dead=None, root_replacements=None, metrics=None):
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    context = QueryContext(
        clustering,
        features,
        metric,
        mtree,
        backbone,
        dead=dead,
        root_replacements=root_replacements,
        metrics=metrics,
    )
    engine = KnnQueryEngine(context)
    return engine, clustering, backbone, metric


def test_knn_fault_free_reports_full_coverage(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features)
    out = engine.query(np.zeros(2), 5, initiator=0)
    assert out.coverage == 1.0
    assert out.drops == 0


def test_knn_dead_backbone_leaf_partial_coverage(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    dead = next(r for r in clustering.roots if backbone.tree.degree(r) == 1)
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5, dead={dead}
    )
    initiator = next(
        n for n in random_topology.graph.nodes if clustering.root_of(n) != dead
    )
    n = random_topology.num_nodes
    out = engine.query(np.zeros(2), n, initiator)
    lost = set(clustering.members(dead))
    alive = set(random_topology.graph.nodes) - {dead}
    # The severed cluster never answers; everyone else does.
    assert {node for node, _ in out.neighbors} == alive - lost
    expected = 1.0 - (len(lost) - 1) / len(alive)
    assert out.coverage == pytest.approx(expected)
    assert out.drops > 0


def test_knn_dead_origin_root_answers_locally(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5
    )
    dead = next(
        (r for r in clustering.roots if len(clustering.members(r)) >= 2), None
    )
    if dead is None or clustering.num_clusters < 2:
        pytest.skip("needs a surviving cluster member and >1 cluster")
    members = set(clustering.members(dead))
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5, dead={dead}
    )
    initiator = next(m for m in members if m != dead)
    out = engine.query(np.zeros(2), len(members) + 5, initiator)
    # Only the initiator's surviving cluster-mates are ranked.
    assert {node for node, _ in out.neighbors} == members - {dead}
    alive = random_topology.num_nodes - 1
    assert out.coverage == pytest.approx((len(members) - 1) / alive)
    assert out.drops >= 1  # the dead_root drop


def test_knn_replacement_root_restores_full_coverage(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    dead = next(
        (
            r
            for r in clustering.roots
            if backbone.tree.degree(r) >= 1 and len(clustering.members(r)) >= 2
        ),
        None,
    )
    if dead is None:
        pytest.skip("needs a surviving cluster member")
    replacement = next(m for m in clustering.members(dead) if m != dead)
    surviving = random_topology.graph.copy()
    surviving.remove_node(dead)
    mtree = build_mtree(clustering, random_features, metric)
    backbone.reroute_around(surviving, dead, replacement)
    context = QueryContext(
        clustering,
        random_features,
        metric,
        mtree,
        backbone,
        dead={dead},
        root_replacements={dead: replacement},
    )
    engine = KnnQueryEngine(context)
    initiator = next(
        n for n in surviving.nodes if clustering.root_of(n) != dead
    )
    out = engine.query(np.zeros(2), len(surviving.nodes), initiator)
    assert {node for node, _ in out.neighbors} == set(surviving.nodes)
    assert out.coverage == 1.0
    truth = brute_force_knn(
        {n: random_features[n] for n in surviving.nodes}, metric, np.zeros(2), 5
    )
    top5 = engine.query(np.zeros(2), 5, initiator)
    assert [n for n, _ in top5.neighbors] == [n for n, _ in truth]


def test_knn_drop_accounting_agrees_between_result_and_metrics(
    random_topology, random_features
):
    """``KnnResult.drops`` equals the sum of the engine's
    ``queries.drops.<reason>`` counters — the double-entry contract the
    range engine established in the fault-tolerance PR."""
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 3:
        pytest.skip("needs a few clusters")
    dead = next(r for r in clustering.roots if backbone.tree.degree(r) == 1)
    metrics = MetricsRegistry()
    engine, clustering, backbone, metric = _fault_knn(
        random_topology, random_features, delta=1.5, dead={dead}, metrics=metrics
    )
    initiator = next(
        n for n in random_topology.graph.nodes if clustering.root_of(n) != dead
    )
    out = engine.query(np.zeros(2), 5, initiator)
    counted = sum(
        metric_dict["value"]
        for name, metric_dict in metrics.snapshot().items()
        if name.startswith("queries.drops.")
    )
    assert counted == out.drops > 0
