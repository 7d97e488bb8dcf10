"""The leader backbone build equals the networkx formulation it replaced.

``tests/backbone_oracle.py`` keeps the original build: an ``nx.Graph`` of
cluster adjacency weighted by ``nx.shortest_path_length``, its
``nx.minimum_spanning_tree``, and ``nx.shortest_path`` for every tree
edge.  Every case here checks that ``build_backbone`` reproduces it
exactly: the tree's node and neighbour order, every path with its key
order and orientation, ``build_messages`` and the stats counters.  The
build makes its ``nx.Graph`` only when ``.tree`` is first read; the
oracle builds its own from the spanning tree's edges.  The build searches
networkx only for root pairs three hops or more apart: ``SearchCounter``
records those searches.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.backbone as backbone_module
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


class SearchCounter:
    """Stands in for networkx in ``repro.index.backbone``: records the end
    points of every ``bidirectional_shortest_path`` call in :attr:`pairs`."""

    def __init__(self):
        self.pairs = []

    def __getattr__(self, name):
        return getattr(nx, name)

    def bidirectional_shortest_path(self, graph, source, target):
        self.pairs.append((source, target))
        return nx.bidirectional_shortest_path(graph, source, target)


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


def test_long_detours_match_oracle(monkeypatch):
    # Roots 3+ hops apart: their pairs are searched, and some join the tree.
    topology = random_geometric_topology(5000, seed=3)
    clustering = _clustering(topology, 0.4, seed=3)
    counter = SearchCounter()
    monkeypatch.setattr(backbone_module, "nx", counter)
    backbone = assert_matches_oracle(topology.graph, clustering)
    assert max(len(path) - 1 for path in backbone.paths.values()) >= 3
    # Two-hop pairs take their middle node from the adjacency rows.
    assert len(counter.pairs) == 115
    graph = topology.graph
    assert all(nx.shortest_path_length(graph, a, b) >= 3 for a, b in counter.pairs)


def test_two_hop_middle_is_first_in_target_row(monkeypatch):
    # Roots a and b share the neighbours x and y, listed in opposite orders
    # in their rows: networkx meets in b's row first, at y.
    graph = nx.Graph([("a", "x"), ("a", "y"), ("b", "y"), ("b", "x")])
    assert list(graph["a"]) == ["x", "y"] and list(graph["b"]) == ["y", "x"]
    assert nx.bidirectional_shortest_path(graph, "a", "b") == ["a", "y", "b"]
    clustering = _rows(graph, [["a", "x"], ["b", "y"]])
    counter = SearchCounter()
    monkeypatch.setattr(backbone_module, "nx", counter)
    backbone = assert_matches_oracle(graph, clustering)
    assert backbone.paths == {("a", "b"): ("a", "y", "b")}
    assert counter.pairs == []


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


@st.composite
def general_instances(draw):
    """A random connected graph with self-loops, its rows rebuilt from a
    shuffled edge list, plus isolated nodes that no cluster holds; and a
    random partition of the connected part into connected clusters, with
    random roots in a random ``root_features`` order.  Ids are ints or
    strings, in neither case in graph order."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=3 * n))
    loops = draw(st.integers(min_value=0, max_value=n))
    isolated = draw(st.integers(min_value=0, max_value=3))
    clusters = draw(st.integers(min_value=1, max_value=n))
    # A random tree keeps the graph connected.  With few edges added most
    # roots are leaves, sources with one neighbour; with many, root pairs
    # share several neighbours, in different orders in the two rows.
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    edges += [(v, v) for v in rng.sample(range(n), loops)]
    rng.shuffle(edges)
    labels = rng.sample(range(1000), n + isolated)
    name = [f"s{label:03d}" for label in labels] if draw(st.booleans()) else labels
    alone = name[n:]
    split = rng.randint(0, isolated)
    graph = nx.Graph()
    graph.add_nodes_from(alone[:split])
    graph.add_edges_from(
        (name[a], name[b]) if rng.random() < 0.5 else (name[b], name[a]) for a, b in edges
    )
    graph.add_nodes_from(alone[split:])

    near = [[] for _ in range(n)]
    for a, b in edges:
        if a != b:
            near[a].append(b)
            near[b].append(a)
    # Clusters grow from random seeds, one random boundary edge at a time.
    owner = {seed: seed for seed in rng.sample(range(n), clusters)}
    boundary = [(v, u) for v in owner for u in near[v]]
    while boundary:
        v, u = boundary.pop(rng.randrange(len(boundary)))
        if u not in owner:
            owner[u] = owner[v]
            boundary += [(u, w) for w in near[u]]
    members = {}
    for v in range(n):
        members.setdefault(owner[v], []).append(v)
    root_of, parent = {}, {}
    for group in members.values():
        root = rng.choice(group)
        parent[root] = root
        reached = [root]
        for v in reached:  # the cluster tree: a BFS inside the cluster
            for u in near[v]:
                if owner[u] == owner[root] and u not in parent:
                    parent[u] = v
                    reached.append(u)
        root_of.update(dict.fromkeys(group, root))
    roots = list(dict.fromkeys(root_of.values()))
    rng.shuffle(roots)
    clustering = Clustering(
        assignment={name[v]: name[root_of[v]] for v in range(n)},
        parent={name[v]: name[parent[v]] for v in range(n)},
        root_features={name[root]: np.zeros(1) for root in roots},
    )
    return graph, clustering


@settings(max_examples=300, derandomize=True, deadline=None)
@given(general_instances())
def test_general_graph_property(case):
    graph, clustering = case
    assert_matches_oracle(graph, clustering)


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


def test_root_outside_the_graph_raises_node_not_found():
    # Root "z" of the middle cluster is no graph node: its pairs are
    # detours with no adjacency row, so they are searched, and the search
    # raises as the oracle's does.
    graph = nx.path_graph(["a", "b", "c", "d"])
    clustering = Clustering(
        assignment={"a": "a", "b": "z", "c": "z", "d": "d"},
        parent={"a": "a", "b": "b", "c": "b", "d": "d"},
        root_features={root: np.zeros(1) for root in ["a", "z", "d"]},
    )
    for build in (build_backbone, backbone_oracle.build_backbone):
        with pytest.raises(nx.NodeNotFound):
            build(graph, clustering)
