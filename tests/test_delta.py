"""Tests for δ-cluster definitions, validation and clustering assembly."""

import networkx as nx
import numpy as np
import pytest

from repro.core import Clustering, clustering_from_assignment, validate_clustering
from repro.core.delta import check_delta_compact
from repro.features import EuclideanMetric


def _line_features(n, step=1.0):
    return {i: np.array([i * step]) for i in range(n)}


def _valid_line_clustering():
    """Path 0-1-2-3-4-5 split into {0,1,2} and {3,4,5}."""
    graph = nx.path_graph(6)
    features = _line_features(6)
    assignment = {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}
    return graph, features, clustering_from_assignment(graph, assignment, features)


def test_clustering_accessors():
    graph, features, clustering = _valid_line_clustering()
    assert clustering.num_clusters == 2
    assert set(clustering.roots) == {0, 3}
    assert sorted(clustering.members(0)) == [0, 1, 2]
    assert clustering.root_of(4) == 3
    assert clustering.cluster_sizes() == [3, 3]


def test_path_to_root_follows_tree():
    graph, features, clustering = _valid_line_clustering()
    assert clustering.path_to_root(2) == [2, 1, 0]
    assert clustering.path_to_root(0) == [0]


def test_path_to_root_detects_cycle():
    clustering = Clustering(
        assignment={0: 0, 1: 0},
        parent={0: 1, 1: 0},
        root_features={0: np.zeros(1)},
    )
    with pytest.raises(ValueError, match="cycle"):
        clustering.path_to_root(1)


def test_tree_children():
    graph, features, clustering = _valid_line_clustering()
    children = clustering.tree_children()
    assert list(children[0]) == [1]
    assert list(children[1]) == [2]
    assert list(children[2]) == []


def test_check_delta_compact_finds_violating_pair():
    features = _line_features(4)
    metric = EuclideanMetric()
    assert check_delta_compact([0, 1], features, metric, 1.5) == []
    violations = check_delta_compact([0, 3], features, metric, 1.5)
    assert violations == [(0, 3, 3.0)]


def test_check_delta_compact_reports_all_pairs_capped():
    # 0..3 on a line, delta=0.5: every pair further than 0.5 apart violates.
    features = _line_features(4)
    metric = EuclideanMetric()
    violations = check_delta_compact([0, 1, 2, 3], features, metric, 0.5)
    pairs = {(a, b) for a, b, _ in violations}
    assert pairs == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    for a, b, distance in violations:
        assert distance == pytest.approx(abs(a - b))
    # The cap bounds the report; limit=1 is the early-exit predicate form.
    assert len(check_delta_compact([0, 1, 2, 3], features, metric, 0.5, limit=2)) == 2
    assert len(check_delta_compact([0, 1, 2, 3], features, metric, 0.5, limit=1)) == 1


def test_validate_clustering_passes_on_valid():
    graph, features, clustering = _valid_line_clustering()
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 2.0)
    assert violations == []


def test_validate_detects_compactness_violation():
    graph, features, clustering = _valid_line_clustering()
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 1.0)
    kinds = {v.kind for v in violations}
    assert "compactness" in kinds


def test_validate_detects_missing_assignment():
    graph = nx.path_graph(3)
    features = _line_features(3)
    clustering = Clustering(
        assignment={0: 0, 1: 0},  # node 2 missing
        parent={0: 0, 1: 0},
        root_features={0: features[0]},
    )
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 10.0)
    assert any(v.kind == "coverage" for v in violations)


def test_validate_detects_disconnected_cluster():
    graph = nx.path_graph(5)
    features = _line_features(5, step=0.1)
    clustering = Clustering(
        assignment={0: 0, 1: 0, 2: 2, 3: 0, 4: 0},  # {0,1,3,4} disconnected
        parent={0: 0, 1: 0, 2: 2, 3: 4, 4: 3},
        root_features={0: features[0], 2: features[2]},
    )
    violations = validate_clustering(
        graph, clustering, features, EuclideanMetric(), 10.0, check_trees=False
    )
    assert any(v.kind == "connectivity" for v in violations)


def test_validate_detects_bad_tree_edge():
    graph = nx.path_graph(4)
    features = _line_features(4, step=0.1)
    clustering = Clustering(
        assignment={0: 0, 1: 0, 2: 0, 3: 0},
        parent={0: 0, 1: 0, 2: 0, 3: 0},  # 2->0 and 3->0 are not graph edges
        root_features={0: features[0]},
    )
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 10.0)
    assert any(v.kind == "tree" for v in violations)


def test_clustering_from_assignment_builds_bfs_trees():
    graph = nx.cycle_graph(6)
    features = _line_features(6, step=0.1)
    assignment = {v: 0 for v in graph.nodes}
    clustering = clustering_from_assignment(graph, assignment, features)
    assert clustering.num_clusters == 1
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 10.0)
    assert violations == []


def test_clustering_from_assignment_splits_disconnected_members():
    graph = nx.path_graph(5)
    features = _line_features(5, step=0.1)
    # Node 2 belongs elsewhere, so cluster 0's members {0,1,3,4} split.
    assignment = {0: 0, 1: 0, 2: 2, 3: 0, 4: 0}
    clustering = clustering_from_assignment(graph, assignment, features)
    assert clustering.num_clusters == 3
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 10.0)
    assert violations == []


def test_split_component_keeps_original_pruning_feature():
    graph = nx.path_graph(5)
    features = _line_features(5, step=0.1)
    assignment = {0: 0, 1: 0, 2: 2, 3: 0, 4: 0}
    root_features = {0: np.array([42.0]), 2: features[2]}
    clustering = clustering_from_assignment(
        graph, assignment, features, root_features=root_features
    )
    # The stray {3,4} component keeps cluster 0's pruning feature.
    stray_roots = [r for r in clustering.roots if r in (3, 4)]
    assert len(stray_roots) == 1
    assert clustering.root_features[stray_roots[0]].tolist() == [42.0]


def test_clustering_from_assignment_honors_valid_parents():
    graph = nx.cycle_graph(4)
    features = _line_features(4, step=0.1)
    assignment = {v: 0 for v in graph.nodes}
    parents = {0: 0, 1: 0, 2: 1, 3: 2}  # a path tree around the cycle
    clustering = clustering_from_assignment(
        graph, assignment, features, parents=parents
    )
    assert clustering.parent == parents


def test_clustering_from_assignment_falls_back_on_broken_parents():
    graph = nx.cycle_graph(4)
    features = _line_features(4, step=0.1)
    assignment = {v: 0 for v in graph.nodes}
    parents = {0: 0, 1: 0, 2: 0, 3: 1}  # 2->0 is not an edge in the cycle
    clustering = clustering_from_assignment(
        graph, assignment, features, parents=parents
    )
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 10.0)
    assert violations == []


def test_validate_reports_multiple_compactness_pairs():
    """A badly broken cluster reports every violating pair, not just one."""
    graph = nx.path_graph(4)
    features = _line_features(4)  # distances 1..3 on a line
    clustering = clustering_from_assignment(graph, {v: 0 for v in graph.nodes}, features)
    violations = validate_clustering(graph, clustering, features, EuclideanMetric(), 0.5)
    compact = [v for v in violations if v.kind == "compactness"]
    # delta=0.5 makes all 6 pairs violate; each is its own violation record.
    assert len(compact) == 6


def test_validate_flags_members_missing_from_graph():
    """Cluster members absent from the graph are an explicit violation.

    Regression test: ``graph.subgraph(nodes)`` silently drops unknown
    nodes, so a clustering mentioning ghosts used to validate as
    connected; connectivity is now checked on the intersection and the
    dropped members are reported.
    """
    graph = nx.path_graph(3)
    features = _line_features(3, step=0.1)
    features[99] = np.array([0.15])
    clustering = Clustering(
        assignment={0: 0, 1: 0, 2: 0, 99: 0},  # node 99 is not in the graph
        parent={0: 0, 1: 0, 2: 1, 99: 0},
        root_features={0: features[0]},
    )
    violations = validate_clustering(
        graph, clustering, features, EuclideanMetric(), 10.0, check_trees=False
    )
    ghost = [v for v in violations if v.kind == "connectivity" and "99" in v.detail]
    assert ghost, f"expected a ghost-member violation, got {violations}"


def test_validate_all_members_missing_does_not_crash():
    """A cluster made only of ghosts is a violation, not an exception."""
    graph = nx.path_graph(3)
    features = _line_features(3, step=0.1)
    features[7] = np.array([0.0])
    features[8] = np.array([0.05])
    clustering = Clustering(
        assignment={0: 0, 1: 0, 2: 0, 7: 7, 8: 7},
        parent={0: 0, 1: 0, 2: 1, 7: 7, 8: 7},
        root_features={0: features[0], 7: features[7]},
    )
    violations = validate_clustering(
        graph, clustering, features, EuclideanMetric(), 10.0, check_trees=False
    )
    assert any(v.kind == "connectivity" for v in violations)
