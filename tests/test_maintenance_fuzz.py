"""Property-based fuzzing of the maintenance layer and post-drift queries.

Invariants that must survive ANY update stream:

- every node stays assigned to exactly one cluster;
- every cluster's membership induces a connected subgraph (after the
  session's repairs);
- rebuilding the index on the drifted state keeps range queries exact.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELinkConfig, MaintenanceSession, run_elink
from repro.features import EuclideanMetric
from repro.geometry import random_geometric_topology
from repro.index import build_backbone, build_mtree
from repro.queries import QueryContext, RangeQueryEngine, brute_force_range

DELTA = 1.2
SLACK = 0.15


def _session(seed):
    topology = random_geometric_topology(30, seed=seed)
    rng = np.random.default_rng(seed + 1)
    features = {v: rng.normal(size=1) for v in topology.graph.nodes}
    metric = EuclideanMetric()
    clustering = run_elink(
        topology, features, metric, ELinkConfig(delta=DELTA - 2 * SLACK)
    ).clustering
    session = MaintenanceSession(
        topology.graph, clustering, features, metric, DELTA, SLACK
    )
    return topology, session


@given(
    seed=st.integers(min_value=0, max_value=20),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=29),
            st.floats(min_value=-2.0, max_value=2.0),
        ),
        min_size=1,
        max_size=60,
    ),
)
@settings(max_examples=25, deadline=None)
def test_maintenance_invariants_under_arbitrary_streams(seed, steps):
    topology, session = _session(seed)
    for node, delta_value in steps:
        new_feature = session.features[node] + np.array([delta_value])
        session.update_feature(node, new_feature)

    # Coverage: every node assigned, every root self-assigned.
    assert set(session.assignment) == set(topology.graph.nodes)
    for root in session.root_features:
        assert session.assignment.get(root) == root

    # Connectivity after the session's repairs (the materialized clustering
    # performs the final split of any stray components).
    clustering = session.current_clustering()
    assert sorted(clustering.assignment) == sorted(topology.graph.nodes)
    for root, members in clustering.clusters().items():
        assert nx.is_connected(topology.graph.subgraph(members))

    # Tree sanity: parents are in-cluster graph edges.
    for node in clustering.assignment:
        parent = clustering.parent[node]
        if parent != node:
            assert topology.graph.has_edge(node, parent)
            assert clustering.assignment[parent] == clustering.assignment[node]


@given(seed=st.integers(min_value=0, max_value=15))
@settings(max_examples=10, deadline=None)
def test_queries_exact_after_drift(seed):
    topology, session = _session(seed)
    rng = np.random.default_rng(seed + 77)
    nodes = list(topology.graph.nodes)
    for _ in range(80):
        node = nodes[int(rng.integers(len(nodes)))]
        session.update_feature(node, session.features[node] + rng.normal(0, 0.4, 1))

    clustering = session.current_clustering()
    metric = session.metric
    features = session.features
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(QueryContext(clustering, features, metric, mtree, backbone))
    for _ in range(5):
        q = rng.normal(size=1)
        radius = float(rng.uniform(0.2, 1.5))
        out = engine.query(q, radius, nodes[0])
        assert out.matches == brute_force_range(features, metric, q, radius)
