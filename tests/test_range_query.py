"""Tests for the clustered range-query engine and the TAG baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import run_spanning_forest
from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import random_geometric_topology
from repro.index import build_backbone, build_mtree
from repro.queries import (
    QueryContext,
    RangeQueryEngine,
    TagEngine,
    brute_force_range,
)


def _engine_for(topology, features, delta):
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    context = QueryContext(clustering, features, metric, mtree, backbone)
    return RangeQueryEngine(context), metric


def test_range_query_matches_brute_force(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    rng = np.random.default_rng(0)
    nodes = list(random_topology.graph.nodes)
    for _ in range(25):
        q = random_features[nodes[int(rng.integers(len(nodes)))]] + rng.normal(0, 0.3, 2)
        radius = float(rng.uniform(0.1, 1.5))
        initiator = nodes[int(rng.integers(len(nodes)))]
        out = engine.query(q, radius, initiator)
        assert out.matches == brute_force_range(random_features, metric, q, radius)
        assert out.messages >= 0


def test_zero_radius_query(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(random_features[node], 0.0, node)
    assert node in out.matches
    assert out.matches == brute_force_range(random_features, metric, random_features[node], 0.0)


def test_negative_radius_rejected(random_topology, random_features):
    engine, _ = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    with pytest.raises(ValueError):
        engine.query(random_features[node], -0.5, node)


def test_far_query_prunes_everything(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(np.array([100.0, 100.0]), 0.5, node)
    assert out.matches == set()
    assert out.clusters_descended == 0


def test_huge_radius_includes_everything(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(np.zeros(2), 1e6, node)
    assert out.matches == set(random_topology.graph.nodes)


def test_pruning_counters_partition_clusters(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(random_features[node], 0.4, node)
    total_roots = engine.context.clustering.num_clusters
    # pruned + included + descended counts visited roots; backbone-subtree
    # pruning can skip some entirely.
    assert out.clusters_pruned + out.clusters_included + out.clusters_descended <= total_roots


def test_query_on_spanning_forest_clustering(random_topology, random_features):
    metric = EuclideanMetric()
    clustering = run_spanning_forest(
        random_topology, random_features, metric, 1.5
    ).clustering
    mtree = build_mtree(clustering, random_features, metric)
    backbone = build_backbone(random_topology.graph, clustering)
    context = QueryContext(clustering, random_features, metric, mtree, backbone)
    engine = RangeQueryEngine(context)
    rng = np.random.default_rng(1)
    nodes = list(random_topology.graph.nodes)
    for _ in range(10):
        q = random_features[nodes[int(rng.integers(len(nodes)))]]
        out = engine.query(q, 0.8, nodes[0])
        assert out.matches == brute_force_range(random_features, metric, q, 0.8)


@given(
    seed=st.integers(min_value=0, max_value=30),
    radius=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=20, deadline=None)
def test_correctness_property(seed, radius):
    topology = random_geometric_topology(50, seed=seed)
    rng = np.random.default_rng(seed + 100)
    features = {v: rng.normal(size=2) for v in topology.graph.nodes}
    engine, metric = _engine_for(topology, features, delta=1.0)
    q = rng.normal(size=2)
    out = engine.query(q, radius, 0)
    assert out.matches == brute_force_range(features, metric, q, radius)


# ----------------------------------------------------------------------
# TAG
# ----------------------------------------------------------------------
def test_tag_fixed_cost_and_correctness(random_topology, random_features):
    metric = EuclideanMetric()
    tag = TagEngine(random_topology.graph, random_features, metric)
    assert tag.tree_edges == random_topology.num_nodes - 1
    cost = tag.per_query_cost()
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.normal(size=2)
        out = tag.query(q, 0.7)
        assert out.messages == cost  # fixed regardless of selectivity
        assert out.matches == brute_force_range(random_features, metric, q, 0.7)


def test_tag_base_station_validation(random_topology, random_features):
    with pytest.raises(KeyError):
        TagEngine(random_topology.graph, random_features, EuclideanMetric(), base_station="nope")


def test_clustered_query_beats_tag_on_correlated_data():
    """On a smooth field most clusters prune, so the clustered engine must
    undercut TAG's fixed cost (the Fig 14 effect)."""
    from repro.geometry import grid_topology

    topology = grid_topology(10, 10)
    features = {
        v: np.array([0.15 * topology.positions[v][0]]) for v in topology.graph.nodes
    }
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=0.3)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(QueryContext(clustering, features, metric, mtree, backbone))
    tag = TagEngine(topology.graph, features, metric)
    rng = np.random.default_rng(3)
    nodes = list(topology.graph.nodes)
    clustered_costs = []
    for _ in range(30):
        q = features[nodes[int(rng.integers(len(nodes)))]]
        out = engine.query(q, 0.1, nodes[int(rng.integers(len(nodes)))])
        assert out.matches == brute_force_range(features, metric, q, 0.1)
        clustered_costs.append(out.messages)
    assert np.mean(clustered_costs) < tag.per_query_cost()


# ----------------------------------------------------------------------
# degraded operation: dead nodes, partial coverage, backbone repair
# ----------------------------------------------------------------------
from repro.features import EuclideanMetric as _Metric
from repro.index import build_backbone as _build_backbone
from repro.index import build_mtree as _build_mtree


def _fault_engine(topology, features, delta, dead=None, root_replacements=None):
    metric = _Metric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = _build_mtree(clustering, features, metric)
    backbone = _build_backbone(topology.graph, clustering)
    context = QueryContext(
        clustering,
        features,
        metric,
        mtree,
        backbone,
        dead=dead,
        root_replacements=root_replacements,
    )
    engine = RangeQueryEngine(context)
    return engine, clustering, backbone, metric


def test_fault_free_query_reports_full_coverage(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    assert engine.query(np.zeros(2), 1e6, node).coverage == 1.0


def test_dead_backbone_leaf_yields_partial_coverage(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    # A backbone leaf: killing it loses exactly its own cluster.
    dead = next(r for r in clustering.roots if backbone.tree.degree(r) == 1)
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5, dead={dead}
    )
    initiator = next(
        n for n in random_topology.graph.nodes if clustering.root_of(n) != dead
    )
    out = engine.query(np.zeros(2), 1e6, initiator)
    lost = set(clustering.members(dead))
    alive = set(random_topology.graph.nodes) - {dead}
    assert out.matches == alive - lost
    expected = 1.0 - (len(lost) - 1) / len(alive)
    assert out.coverage == pytest.approx(expected)


def test_dead_origin_root_answers_locally(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    dead = next(
        (r for r in clustering.roots if len(clustering.members(r)) >= 2), None
    )
    if dead is None:
        pytest.skip("needs a surviving cluster member")
    members = set(clustering.members(dead))
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5, dead={dead}
    )
    initiator = next(m for m in members if m != dead)
    out = engine.query(np.zeros(2), 1e6, initiator)
    assert out.matches == members - {dead}
    alive = len(random_topology.graph.nodes) - 1
    assert out.coverage == pytest.approx((len(members) - 1) / alive)


def test_replacement_root_restores_coverage(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_engine(
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
    mtree = _build_mtree(clustering, random_features, metric)
    rerouted = backbone.reroute_around(surviving, dead, replacement)
    context = QueryContext(
        clustering,
        random_features,
        metric,
        mtree,
        backbone,
        dead={dead},
        root_replacements={dead: replacement},
    )
    engine = RangeQueryEngine(context)
    initiator = next(
        n for n in surviving.nodes if clustering.root_of(n) != dead
    )
    out = engine.query(np.zeros(2), 1e6, initiator)
    assert out.matches == set(surviving.nodes)
    assert out.coverage == 1.0


def test_zero_survivors_reports_zero_coverage():
    """With every node dead, coverage is 0.0 — nothing was coverable.

    Regression test: the all-dead edge case used to report coverage 1.0
    because the "fraction of survivors covered" ratio degenerated to a
    vacuous truth over an empty survivor set.
    """
    from repro.geometry.topology import grid_topology

    topology = grid_topology(4, 4)
    features = {n: np.array([float(x + y)]) for n, (x, y) in topology.positions.items()}
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=1.5)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    context = QueryContext(
        clustering, features, metric, mtree, backbone, dead=set(topology.graph.nodes)
    )
    engine = RangeQueryEngine(context)
    out = engine.query(np.zeros(1), 1e6, next(iter(topology.graph.nodes)))
    assert out.coverage == 0.0
    assert out.matches == set()


def test_drop_accounting_agrees_between_stats_and_metrics():
    """Degraded queries account drops identically in ``stats.drops_by_reason``
    and the (optional) ``MetricsRegistry`` counters, and report the total
    through ``RangeQueryResult.drops``."""
    from repro.geometry.topology import grid_topology
    from repro.obs import MetricsRegistry

    topology = grid_topology(4, 4)
    # identical features: one cluster per component, so killing the roots
    # leaves survivors to run the local-only degraded path
    features = {n: np.zeros(1) for n in topology.graph.nodes}
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=1.5)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    metrics = MetricsRegistry()
    dead = set(clustering.roots)  # every root dead: local-only degraded path
    context = QueryContext(
        clustering, features, metric, mtree, backbone, dead=dead, metrics=metrics
    )
    engine = RangeQueryEngine(context)
    initiator = next(n for n in topology.graph.nodes if n not in dead)
    out = engine.query(np.zeros(1), 1e6, initiator)
    assert out.drops > 0
    reasons = {
        name.rsplit(".", 1)[1]: metrics.counter(name).value
        for name in metrics.names()
        if name.startswith("queries.drops.")
    }
    assert reasons  # the registry saw every structured drop reason
    assert sum(reasons.values()) == out.drops
