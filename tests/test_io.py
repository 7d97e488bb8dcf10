"""Tests for JSON serialization of topologies, features and clusterings."""

import json

import numpy as np
import pytest

from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import grid_topology
from repro.io import (
    clustering_from_dict,
    clustering_to_dict,
    load_state,
    save_state,
    topology_from_dict,
    topology_to_dict,
)


@pytest.fixture
def state(small_grid, small_grid_features):
    clustering = run_elink(
        small_grid, small_grid_features, EuclideanMetric(), ELinkConfig(delta=0.6)
    ).clustering
    return small_grid, small_grid_features, clustering


def test_round_trip_through_file(tmp_path, state):
    topology, features, clustering = state
    path = tmp_path / "state.json"
    save_state(
        path,
        topology=topology,
        features=features,
        clustering=clustering,
        metadata={"delta": 0.6},
    )
    loaded_topology, loaded_features, loaded_clustering, metadata = load_state(path)
    assert set(loaded_topology.graph.nodes) == set(topology.graph.nodes)
    assert _edge_set(loaded_topology.graph) == _edge_set(topology.graph)
    assert loaded_topology.positions == topology.positions
    for node in features:
        assert np.allclose(loaded_features[node], features[node])
    assert loaded_clustering.assignment == clustering.assignment
    assert loaded_clustering.parent == clustering.parent
    assert metadata == {"delta": 0.6}


def test_round_trip_without_clustering(tmp_path, state):
    topology, features, _ = state
    path = tmp_path / "bare.json"
    save_state(path, topology=topology, features=features)
    _, _, clustering, _ = load_state(path)
    assert clustering is None


def test_clustering_dict_round_trip(state):
    _, _, clustering = state
    rebuilt = clustering_from_dict(clustering_to_dict(clustering))
    assert rebuilt.assignment == clustering.assignment
    for root in clustering.root_features:
        assert np.allclose(rebuilt.root_features[root], clustering.root_features[root])


def _edge_set(graph):
    return {frozenset(edge) for edge in graph.edges}


def test_topology_dict_round_trip():
    topology = grid_topology(3, 4)
    rebuilt = topology_from_dict(topology_to_dict(topology))
    assert _edge_set(rebuilt.graph) == _edge_set(topology.graph)


def test_string_and_tuple_node_ids(tmp_path):
    import networkx as nx

    from repro.geometry.topology import Topology

    graph = nx.Graph([("a", ("b", 1))])
    topology = Topology(graph, {"a": (0.0, 0.0), ("b", 1): (1.0, 0.0)})
    features = {"a": np.zeros(1), ("b", 1): np.ones(1)}
    path = tmp_path / "ids.json"
    save_state(path, topology=topology, features=features)
    loaded_topology, loaded_features, _, _ = load_state(path)
    assert set(loaded_topology.graph.nodes) == {"a", ("b", 1)}
    assert loaded_features[("b", 1)].tolist() == [1.0]


def test_unsupported_node_id_rejected(tmp_path):
    import networkx as nx

    from repro.geometry.topology import Topology

    graph = nx.Graph()
    graph.add_node(frozenset({1}))
    topology = Topology(graph, {frozenset({1}): (0.0, 0.0)})
    with pytest.raises(TypeError, match="unsupported node id"):
        save_state(tmp_path / "bad.json", topology=topology, features={frozenset({1}): np.zeros(1)})


def test_non_finite_position_rejected(tmp_path):
    # Python's json reads NaN and Infinity; the topology must refuse them.
    path = tmp_path / "nan.json"
    topology = grid_topology(4, 4)
    save_state(path, topology=topology, features={v: np.zeros(1) for v in topology.graph.nodes})
    document = json.loads(path.read_text())
    for node, xy in document["topology"]["positions"]:
        if node == 5:
            xy[0] = float("nan")
    path.write_text(json.dumps(document))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError, match=r"position of node 5 must be finite, got \(nan, "):
        load_state(path)


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_state(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"format_version": 999}))
    with pytest.raises(ValueError, match="unsupported format version"):
        load_state(path)


def test_malformed_clustering_payload_rejected():
    with pytest.raises(ValueError, match="malformed clustering"):
        clustering_from_dict({"assignment": "nope"})


def test_malformed_topology_payload_rejected():
    with pytest.raises(ValueError, match="malformed topology"):
        topology_from_dict({"nodes": [0], "edges": [[0]], "positions": []})
