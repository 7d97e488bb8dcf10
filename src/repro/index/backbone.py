"""Inter-cluster leader backbone tree (paper §7.2).

A spanning tree connecting the roots of all clusters, used to route
queries from any cluster root to every other cluster root.  We build the
minimum-hop spanning tree over the *cluster adjacency graph* (two clusters
are adjacent when a communication edge crosses their boundary), weighting
each adjacency by the leader-to-leader hop distance in the communication
graph, and we remember the concrete hop path for every backbone edge so
query routing can be charged exactly.

The tree is the one ``nx.minimum_spanning_tree`` (Kruskal, with its
tie-break) picks over that weighted graph, but the graph is never built:
roots that are graph neighbours are one hop apart, and only the other
root pairs that can still join the tree are searched for their hop path.

The paper accounts the backbone construction cost to ELink; the cost here
is one handshake (2 control values) per hop of every backbone edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro.core.delta import Clustering
from repro.geometry.topology import adjacency_arrays
from repro.sim.messages import CATEGORY_DATA, Message
from repro.sim.stats import MessageStats


@dataclass
class BackboneTree:
    """Spanning tree over cluster roots with per-edge routing paths.

    The tree's edges are the keys of :attr:`paths`, each mapped to its hop
    path as a tuple (a one-hop edge's path is its key).  :attr:`tree` is
    the same tree as an ``nx.Graph``, built on first read and kept.
    """

    #: The cluster roots: the tree's nodes, in order.
    roots: list[Hashable]
    paths: dict[tuple[Hashable, Hashable], tuple[Hashable, ...]]
    build_messages: int = 0
    stats: MessageStats = field(default_factory=MessageStats)

    @cached_property
    def tree(self) -> nx.Graph:
        """The tree as an ``nx.Graph``: :attr:`roots`, then the edges in
        :attr:`paths` order."""
        tree = nx.Graph()
        tree.add_nodes_from(self.roots)
        tree.add_edges_from(self.paths)
        return tree

    def path(self, a: Hashable, b: Hashable) -> tuple[Hashable, ...]:
        """Hop path of backbone edge (a, b)."""
        if (a, b) in self.paths:
            return self.paths[(a, b)]
        return self.paths[(b, a)][::-1]

    def edge_hops(self, a: Hashable, b: Hashable) -> int:
        """Hop length of backbone edge (a, b)."""
        path = self.paths[(a, b)] if (a, b) in self.paths else self.paths[(b, a)]
        return len(path) - 1

    def reroute_around(
        self, graph: nx.Graph, dead_root: Hashable, replacement: Hashable
    ) -> int:
        """Repair the backbone after cluster root *dead_root* crashed.

        *replacement* (the re-elected representative of the dead root's
        cluster) takes the dead root's place in the tree; each incident
        backbone edge is re-routed over the *surviving* communication
        graph and re-charged as at build time (one 2-value handshake per
        hop, recorded in :attr:`stats` as repair traffic).  Backbone
        neighbours that are unreachable in the surviving graph have their
        edge dropped — the tree may split; callers detect that via the
        returned count and report partial coverage.  Returns the number
        of successfully re-routed edges.
        """
        if dead_root not in self.tree:
            raise KeyError(f"{dead_root!r} is not a backbone node")
        neighbours = list(self.tree.neighbors(dead_root))
        self.tree.remove_node(dead_root)
        for key in [k for k in self.paths if dead_root in k]:
            del self.paths[key]
        self.tree.add_node(replacement)
        self.roots = list(self.tree)
        rerouted = 0
        for neighbour in neighbours:
            if neighbour == replacement or neighbour not in graph:
                continue
            try:
                path = tuple(nx.shortest_path(graph, replacement, neighbour))
            except (nx.NodeNotFound, nx.NetworkXNoPath):
                continue  # unreachable survivor: this edge stays severed
            self.tree.add_edge(replacement, neighbour)
            self.paths[(replacement, neighbour)] = path
            self.stats.record(
                Message("probe", replacement, neighbour, values=2, category="repair"),
                hops=max(len(path) - 1, 1),
            )
            rerouted += 1
        return rerouted


def build_backbone(graph: nx.Graph, clustering: Clustering) -> BackboneTree:
    """Build the leader backbone tree (see module docstring).

    The tree, its node and neighbour order, every path and the stats equal
    what ``nx.minimum_spanning_tree`` gives over the cluster adjacency
    graph with ``nx.shortest_path_length`` weights, routed by
    ``nx.shortest_path``; that formulation is kept in the tests as the
    oracle this build is checked against.  Raises :class:`ValueError` when
    the cluster adjacency graph is disconnected.
    """
    roots = clustering.roots
    stats = MessageStats()
    if len(roots) == 1:
        return BackboneTree(roots, {}, 0, stats)

    lo, hi, adjacent = _root_pairs(graph, clustering.assignment, roots)
    # Kruskal with networkx's tie-break: pairs stably sorted by hop
    # weight.  Roots that are graph neighbours weigh 1, so their pairs
    # come first, in pair order.
    parent = list(range(len(roots)))
    chosen = _join(parent, lo, hi, np.flatnonzero(adjacent).tolist())
    # A pair whose roots those 1-hop pairs already joined can never enter
    # the tree, so only the others are searched for their hop path.
    detours: dict[int, tuple[Hashable, ...]] = {}
    for k in np.flatnonzero(~adjacent).tolist():
        if _find(parent, lo[k]) != _find(parent, hi[k]):
            detours[k] = tuple(
                nx.bidirectional_shortest_path(graph, roots[lo[k]], roots[hi[k]])
            )
    chosen += _join(parent, lo, hi, sorted(detours, key=lambda k: len(detours[k])))
    if len(chosen) != len(roots) - 1:
        # The communication graph is connected, so cluster adjacency must
        # be too; a disconnect indicates a broken clustering.
        raise ValueError("cluster adjacency graph is disconnected")

    # ``nx.Graph.edges`` lists a tree edge under its earlier root, and a
    # root's edges in the order Kruskal added them.
    chosen.sort(key=lo.__getitem__)
    paths: dict[tuple[Hashable, Hashable], tuple[Hashable, ...]] = {}
    for k in chosen:
        edge = (roots[lo[k]], roots[hi[k]])
        paths[edge] = detours.get(k, edge)
    # Handshake: 2 control values per hop of every backbone edge.
    stats.charge("feature", CATEGORY_DATA, 2, hops=sum(len(p) - 1 for p in paths.values()))
    return BackboneTree(roots, paths, stats.total_values, stats)


def _root_pairs(
    graph: nx.Graph, assignment: Mapping[Hashable, Hashable], roots: list[Hashable]
) -> tuple[list[int], list[int], np.ndarray]:
    """The cluster adjacency graph's edges, as positions in *roots*.

    Returns ``(lo, hi, adjacent)``: pair ``k`` joins ``roots[lo[k]]`` and
    ``roots[hi[k]]`` (``lo[k] < hi[k]``), one pair per two clusters that a
    communication edge joins, listed as ``nx.Graph.edges`` lists a graph
    whose nodes are *roots* and whose edges were added in ``graph.edges``
    order: by earlier root, then by the first communication edge between
    the two clusters.  ``adjacent[k]`` is true when the two roots are
    themselves graph neighbours.
    """
    position = {root: k for k, root in enumerate(roots)}
    nodes, index, indptr, heads = adjacency_arrays(graph)
    degree = np.diff(indptr)
    # Only nodes with an edge need a cluster: graph.edges is all that is read.
    cluster = np.fromiter(
        (position[assignment[node]] if d else -1 for node, d in zip(nodes, degree.tolist())),
        dtype=np.int64,
        count=len(nodes),
    )
    tails = np.repeat(np.arange(len(nodes)), degree)
    # graph.edges lists each edge once, from its earlier node, in
    # adjacency order: the forward half-edges, in this order (a self-loop
    # never joins two clusters).
    forward = heads > tails
    tails, heads = tails[forward], heads[forward]
    a, b = cluster[tails], cluster[heads]
    cross = a != b
    tails, heads, a, b = tails[cross], heads[cross], a[cross], b[cross]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * len(roots) + hi
    root_node = np.array([index.get(root, -1) for root in roots], dtype=np.int64)
    between_roots = key[(root_node[a] == tails) & (root_node[b] == heads)]
    _, first = np.unique(key, return_index=True)  # first edge of each pair
    first = first[np.lexsort((first, lo[first]))]
    return lo[first].tolist(), hi[first].tolist(), np.isin(key[first], between_roots)


def _join(parent: list[int], lo: list[int], hi: list[int], order: list[int]) -> list[int]:
    """Union the pairs in *order*; return those that joined two components."""
    joined = []
    for k in order:
        p, q = _find(parent, lo[k]), _find(parent, hi[k])
        if p != q:
            parent[p] = q
            joined.append(k)
    return joined


def _find(parent: list[int], p: int) -> int:
    """Component of *p* in the union-find forest *parent*, halving its path."""
    while parent[p] != p:
        parent[p] = p = parent[parent[p]]
    return p

