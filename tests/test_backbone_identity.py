"""The leader backbone build equals the networkx formulation it replaced.

``tests/backbone_oracle.py`` keeps the original build: an ``nx.Graph`` of
cluster adjacency weighted by ``nx.shortest_path_length``, its
``nx.minimum_spanning_tree``, and ``nx.shortest_path`` for every tree
edge.  Every case here checks that ``build_backbone`` reproduces it
exactly: the tree's node and neighbour order, every path with its key
order and orientation, ``build_messages`` and the stats counters.  The
build makes its ``nx.Graph`` only when ``.tree`` is first read; the
oracle builds its own from the spanning tree's edges.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELinkConfig, run_elink
from repro.core.delta import Clustering
from repro.features import EuclideanMetric
from repro.geometry import grid_topology, random_geometric_topology
from repro.index import build_backbone
from tests import backbone_oracle


def _field(topology, seed, tilt=0.5):
    """A noisy linear field over the topology's positions (1-d features)."""
    rng = np.random.default_rng(seed)
    return {
        node: np.array([x + tilt * y + rng.normal(0, 0.05)])
        for node, (x, y) in topology.positions.items()
    }


def _clustering(topology, delta, signalling="implicit", seed=0, tilt=0.5):
    config = ELinkConfig(delta=delta, signalling=signalling)
    features = _field(topology, seed, tilt)
    return run_elink(topology, features, EuclideanMetric(), config).clustering


def _adjacency(tree):
    return [(node, list(nbrs.items())) for node, nbrs in tree.adj.items()]


def _counters(stats):
    counters = (
        stats.packets_by_kind,
        stats.values_by_kind,
        stats.packets_by_category,
        stats.values_by_category,
        stats.drops_by_kind,
        stats.drops_by_reason,
    )
    return [list(c.items()) for c in counters], stats.total_packets, stats.total_values


def assert_same_backbone(new, old):
    """Tree, paths, build cost and stats of *new* equal *old*'s, in order."""
    assert _adjacency(new.tree) == _adjacency(old.tree)
    assert list(new.tree.nodes(data=True)) == list(old.tree.nodes(data=True))
    # The oracle keeps networkx's path lists; the build keeps tuples.
    assert [(key, tuple(path)) for key, path in new.paths.items()] == [
        (key, tuple(path)) for key, path in old.paths.items()
    ]
    assert new.build_messages == old.build_messages
    assert _counters(new.stats) == _counters(old.stats)


def assert_matches_oracle(graph, clustering):
    new = build_backbone(graph, clustering)
    old = backbone_oracle.build_backbone(graph, clustering)
    assert_same_backbone(new, old)
    return new


@pytest.mark.parametrize("signalling", ["implicit", "explicit"])
@pytest.mark.parametrize("delta", [0.5, 3.0])
@pytest.mark.parametrize("side", [6, 10, 14, 20])
def test_grid_matches_oracle(side, delta, signalling):
    topology = grid_topology(side, side)
    clustering = _clustering(topology, delta, signalling)
    assert clustering.num_clusters > 1
    assert_matches_oracle(topology.graph, clustering)


@pytest.mark.parametrize("delta", [0.1, 0.4])
@pytest.mark.parametrize(("n", "seed"), [(50, 1), (300, 3), (600, 2)])
def test_random_geometric_matches_oracle(n, seed, delta):
    topology = random_geometric_topology(n, seed=seed)
    clustering = _clustering(topology, delta, seed=seed)
    assert clustering.num_clusters > 1
    assert_matches_oracle(topology.graph, clustering)


def test_long_detours_match_oracle():
    # Roots 3+ hops apart: their pairs are searched, and some join the tree.
    topology = random_geometric_topology(5000, seed=3)
    clustering = _clustering(topology, 0.4, seed=3)
    backbone = assert_matches_oracle(topology.graph, clustering)
    assert max(len(path) - 1 for path in backbone.paths.values()) >= 3


def test_string_ids_in_scrambled_order_match_oracle():
    topology = random_geometric_topology(200, seed=2)
    clustering = _clustering(topology, 0.4, seed=2)
    rng = random.Random(5)
    labels = list(topology.graph)
    rng.shuffle(labels)
    name = {node: f"s{label:04d}" for node, label in zip(topology.graph, labels)}
    # Rebuild from a shuffled edge list so neither the node order nor any
    # neighbour order follows the ids.
    edges = [(name[a], name[b]) for a, b in topology.graph.edges]
    rng.shuffle(edges)
    graph = nx.Graph(edges)
    renamed = Clustering(
        assignment={name[node]: name[root] for node, root in clustering.assignment.items()},
        parent={name[node]: name[up] for node, up in clustering.parent.items()},
        root_features={name[root]: f for root, f in clustering.root_features.items()},
    )
    backbone = assert_matches_oracle(graph, renamed)
    assert all(isinstance(root, str) for root in backbone.tree)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=150),
    seed=st.integers(min_value=0, max_value=10_000),
    delta=st.floats(min_value=0.05, max_value=1.0),
    tilt=st.floats(min_value=-1.0, max_value=1.0),
)
def test_random_geometric_property(n, seed, delta, tilt):
    topology = random_geometric_topology(n, seed=seed)
    clustering = _clustering(topology, delta, seed=seed, tilt=tilt)
    assert_matches_oracle(topology.graph, clustering)


@pytest.mark.parametrize(("n", "seed"), [(300, 3), (600, 2)])
def test_reroute_around_matches_oracle_build(n, seed):
    topology = random_geometric_topology(n, seed=seed)
    clustering = _clustering(topology, 0.4, seed=seed)
    new = build_backbone(topology.graph, clustering)
    old = backbone_oracle.build_backbone(topology.graph, clustering)
    # The busiest backbone root that has a member to take its place.
    dead = max(
        (root for root in clustering.roots if len(clustering.members(root)) > 1),
        key=old.tree.degree,
    )
    replacement = next(m for m in clustering.members(dead) if m != dead)
    surviving = topology.graph.copy()
    surviving.remove_node(dead)
    assert "tree" not in vars(new)  # the repair builds the graph it edits
    rerouted = new.reroute_around(surviving, dead, replacement)
    assert rerouted == old.reroute_around(surviving, dead, replacement)
    assert rerouted == new.tree.degree(replacement) > 0
    assert new.roots == list(new.tree)
    assert_same_backbone(new, old)


def test_tree_is_built_on_first_read(monkeypatch):
    topology = random_geometric_topology(600, seed=2)
    clustering = _clustering(topology, 0.4, seed=2)
    built = []
    init = nx.Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(nx.Graph, "__init__", counting_init)
    backbone = build_backbone(topology.graph, clustering)
    assert built == []
    assert all(type(path) is tuple for path in backbone.paths.values())
    tree = backbone.tree
    assert built == [nx.Graph]
    assert backbone.tree is tree
    assert built == [nx.Graph]
    monkeypatch.undo()
    assert_same_backbone(backbone, backbone_oracle.build_backbone(topology.graph, clustering))


def _rows(graph, rows):
    """Clustering with one cluster per node list; the first node is the root."""
    assignment, parent = {}, {}
    for row in rows:
        for up, node in zip([row[0], *row], row):
            assignment[node], parent[node] = row[0], up
    features = {row[0]: np.zeros(1) for row in rows}
    assert set(assignment) == set(graph)
    return Clustering(assignment=assignment, parent=parent, root_features=features)


@pytest.mark.parametrize(
    "rows",
    [
        # Singletons: every root pair is one hop apart.
        [[0], [1], [2], [3], [4], [5], [6], [7], [8], [9], [10], [11]],
        # Rows of two 2x3 grids, roots at alternating ends, so pairs within a
        # component are 2-3 hops apart and searched before the check fails.
        [[0, 1, 2], [5, 4, 3], [6, 7, 8], [11, 10, 9]],
    ],
    ids=["singletons", "rows"],
)
def test_disconnected_adjacency_raises_value_error(rows):
    graph = nx.disjoint_union(nx.grid_2d_graph(2, 3), nx.grid_2d_graph(2, 3))
    clustering = _rows(graph, rows)
    for build in (build_backbone, backbone_oracle.build_backbone):
        with pytest.raises(ValueError, match="^cluster adjacency graph is disconnected$"):
            build(graph, clustering)
