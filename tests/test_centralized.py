"""Tests for the centralized spectral baseline."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import centralized_collection_cost, spectral_clustering_search
from repro.baselines.centralized import _components_assignment
from repro.core import validate_clustering
from repro.features import EuclideanMetric
from repro.geometry import grid_topology


def test_valid_clustering(random_topology, random_features):
    metric = EuclideanMetric()
    result = spectral_clustering_search(
        random_topology.graph, random_features, metric, 1.5
    )
    violations = validate_clustering(
        random_topology.graph, result.clustering, random_features, metric, 1.5
    )
    assert violations == []
    assert result.k_used >= 1


def test_uniform_features_single_cluster():
    topology = grid_topology(4, 4)
    features = {v: np.zeros(1) for v in topology.graph.nodes}
    result = spectral_clustering_search(topology.graph, features, EuclideanMetric(), 1.0)
    assert result.num_clusters == 1
    assert result.k_used == 1


def test_two_plateau_field_found_with_two_parts():
    topology = grid_topology(4, 4)
    features = {
        v: np.array([0.0 if topology.positions[v][0] < 2 else 10.0])
        for v in topology.graph.nodes
    }
    result = spectral_clustering_search(topology.graph, features, EuclideanMetric(), 1.0)
    assert result.num_clusters == 2


def test_doubling_search_matches_linear_feasibility(random_topology, random_features):
    metric = EuclideanMetric()
    linear = spectral_clustering_search(
        random_topology.graph, random_features, metric, 1.0, search="linear"
    )
    doubling = spectral_clustering_search(
        random_topology.graph, random_features, metric, 1.0, search="doubling"
    )
    # Both must return valid clusterings; doubling may use a slightly
    # different k (feasibility is not strictly monotone) but stays close.
    for result in (linear, doubling):
        assert validate_clustering(
            random_topology.graph, result.clustering, random_features, metric, 1.0
        ) == []


def test_distance_affinity_mode_runs(random_topology, random_features):
    metric = EuclideanMetric()
    result = spectral_clustering_search(
        random_topology.graph, random_features, metric, 1.5, affinity="distance"
    )
    assert validate_clustering(
        random_topology.graph, result.clustering, random_features, metric, 1.5
    ) == []


def test_invalid_affinity_rejected(random_topology, random_features):
    with pytest.raises(ValueError):
        spectral_clustering_search(
            random_topology.graph, random_features, EuclideanMetric(), 1.0,
            affinity="cosine",
        )


def test_invalid_search_rejected(random_topology, random_features):
    with pytest.raises(ValueError):
        spectral_clustering_search(
            random_topology.graph, random_features, EuclideanMetric(), 1.0,
            search="random",
        )


def test_collection_cost_grid():
    topology = grid_topology(3, 3)
    # Manhattan hop distances from corner 0: sum over nodes of (row+col).
    expected = sum(
        (r + c) for r in range(3) for c in range(3) if (r, c) != (0, 0)
    )
    assert centralized_collection_cost(topology.graph, 0, 1) == expected
    assert centralized_collection_cost(topology.graph, 0, 4) == 4 * expected


def test_collection_cost_validation():
    topology = grid_topology(2, 2)
    with pytest.raises(ValueError):
        centralized_collection_cost(topology.graph, 0, 0)


def test_messages_reported(random_topology, random_features):
    result = spectral_clustering_search(
        random_topology.graph, random_features, EuclideanMetric(), 1.0
    )
    assert result.messages == centralized_collection_cost(
        random_topology.graph, list(random_topology.graph.nodes)[0], 2
    )


def test_singleton_fallback_when_nothing_feasible():
    """With max_k=1 and incompatible features, the search falls back to
    singletons (always a valid δ-clustering)."""
    topology = grid_topology(2, 2)
    features = {v: np.array([100.0 * v]) for v in topology.graph.nodes}
    result = spectral_clustering_search(
        topology.graph, features, EuclideanMetric(), 1.0, max_k=1
    )
    assert result.num_clusters == 4


_RELABEL = {
    "int": lambda v: v,
    "str": lambda v: f"n{v}",
    "tuple": lambda v: (v % 7, v),
}


@given(seed=st.integers(0, 2**31 - 1), ids=st.sampled_from(sorted(_RELABEL)))
@settings(derandomize=True, deadline=None, max_examples=100)
def test_components_assignment_matches_networkx(seed, ids):
    """Each spectral part splits into the components networkx finds on the
    induced subgraph, each rooted at its min-repr member.  Compared as
    dicts: the sweep runs in graph node order, networkx's filtered views
    do not always."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    graph = nx.gnp_random_graph(n, float(rng.uniform(0.02, 0.3)), seed=seed)
    graph = nx.relabel_nodes(graph, {v: _RELABEL[ids](v) for v in graph})
    nodes = list(graph.nodes)
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    expected = {}
    for part in set(labels.tolist()):
        members = [v for v, label in zip(nodes, labels) if label == part]
        for component in nx.connected_components(graph.subgraph(members)):
            expected.update(dict.fromkeys(component, min(component, key=repr)))
    assert _components_assignment(graph, nodes, labels) == expected
