"""Inter-cluster leader backbone tree (paper §7.2).

A spanning tree connecting the roots of all clusters, used to route
queries from any cluster root to every other cluster root.  We build the
minimum-hop spanning tree over the *cluster adjacency graph* (two clusters
are adjacent when a communication edge crosses their boundary), weighting
each adjacency by the leader-to-leader hop distance in the communication
graph, and we remember the concrete hop path for every backbone edge so
query routing can be charged exactly.

The tree is the one ``nx.minimum_spanning_tree`` (Kruskal, with its
tie-break) picks over that weighted graph, but the graph is never built,
and numpy does the work per root pair:

- one stable sort of the cross-cluster communication edges lists the
  root pairs in ``nx.Graph.edges`` order and marks the pairs whose roots
  are graph neighbours, one hop apart;
- those pairs come first in Kruskal's order, so the tree's one-hop edges
  are their minimum spanning forest under pair-index weights, found by
  Borůvka;
- of the other pairs, only those whose roots that forest left apart can
  join the tree.  Where the roots share a neighbour, the pair is two hops
  long and its middle node is read from the adjacency rows, as networkx's
  search would pick it; only the rest, three hops or more, are searched;
- a second Borůvka forest over the first one's components, with these
  pairs stably sorted by hop length, adds the rest of the tree.

The paper accounts the backbone construction cost to ELink; the cost here
is one handshake (2 control values) per hop of every backbone edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
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

    nodes, index, indptr, heads = adjacency_arrays(graph)
    root_node = np.fromiter(map(index.get, roots, repeat(-1)), dtype=np.int64, count=len(roots))
    lo, hi, adjacent = _root_pairs(clustering.assignment, roots, root_node, nodes, indptr, heads)
    # Kruskal with networkx's tie-break takes the pairs stably sorted by
    # hop weight.  Roots that are graph neighbours weigh 1, so their pairs
    # come first, in pair order.
    one = np.flatnonzero(adjacent)
    kept, component = _spanning_forest(len(roots), lo[one], hi[one])
    one = one[kept]
    # A pair whose roots the one-hop edges already joined can never enter
    # the tree.  Of the others, the detours, only those three or more hops
    # long are searched for their hop path.
    detour = np.flatnonzero(~adjacent & (component[lo] != component[hi]))
    middle = _two_hop_middles(indptr, heads, root_node[lo[detour]], root_node[hi[detour]])
    far = np.flatnonzero(middle < 0)
    searched = {
        j: tuple(nx.bidirectional_shortest_path(graph, roots[p], roots[q]))
        for j, p, q in zip(far.tolist(), lo[detour[far]].tolist(), hi[detour[far]].tolist())
    }
    hops = np.full(len(detour), 2)
    hops[far] = [len(path) - 1 for path in searched.values()]
    order = np.argsort(hops, kind="stable")
    ends = detour[order]
    kept, _ = _spanning_forest(len(roots), component[lo[ends]], component[hi[ends]])
    joined = order[kept]  # the detours Kruskal adds, as places in detour, in its order
    if len(one) + len(joined) != len(roots) - 1:
        # The communication graph is connected, so cluster adjacency must
        # be too; a disconnect indicates a broken clustering.
        raise ValueError("cluster adjacency graph is disconnected")

    # ``nx.Graph.edges`` lists a tree edge under its earlier root, and a
    # root's edges in the order Kruskal added them.
    chosen = np.concatenate([one, detour[joined]])
    chosen = chosen[np.argsort(lo[chosen], kind="stable")]
    root_at = roots.__getitem__
    keys = list(zip(map(root_at, lo[chosen].tolist()), map(root_at, hi[chosen].tolist())))
    # A one-hop edge's path is its key; a detour's replaces it in place.
    paths: dict[tuple[Hashable, Hashable], tuple[Hashable, ...]] = dict(zip(keys, keys))
    for j, p, w, q in zip(
        joined.tolist(),
        lo[detour[joined]].tolist(),
        middle[joined].tolist(),
        hi[detour[joined]].tolist(),
    ):
        a, b = roots[p], roots[q]
        paths[a, b] = (a, nodes[w], b) if w >= 0 else searched[j]
    # Handshake: 2 control values per hop of every backbone edge.
    stats.charge("feature", CATEGORY_DATA, 2, hops=len(one) + int(hops[joined].sum()))
    return BackboneTree(roots, paths, stats.total_values, stats)


def _root_pairs(
    assignment: Mapping[Hashable, Hashable],
    roots: list[Hashable],
    root_node: np.ndarray,
    nodes: list[Hashable],
    indptr: np.ndarray,
    heads: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster adjacency graph's edges, as positions in *roots*.

    Returns ``(lo, hi, adjacent)``: pair ``k`` joins ``roots[lo[k]]`` and
    ``roots[hi[k]]`` (``lo[k] < hi[k]``), one pair per two clusters that a
    communication edge joins, listed as ``nx.Graph.edges`` lists a graph
    whose nodes are *roots* and whose edges were added in ``graph.edges``
    order: by earlier root, then by the first communication edge between
    the two clusters.  ``adjacent[k]`` is true when the two roots are
    themselves graph neighbours.  *root_node* holds each root's position
    in *nodes* (-1 outside the graph), and *indptr* and *heads* are the
    graph's CSR rows.
    """
    position = dict(zip(roots, range(len(roots))))
    degree = np.diff(indptr)
    # Only nodes with an edge need a cluster: graph.edges is all that is read.
    linked = degree > 0
    cluster = np.full(len(nodes), -1)
    cluster[linked] = np.fromiter(
        map(position.__getitem__, map(assignment.__getitem__, compress(nodes, linked.tolist()))),
        dtype=np.int64,
        count=int(linked.sum()),
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
    between_roots = (root_node[a] == tails) & (root_node[b] == heads)
    # One stable sort groups every pair's edges, each group in edge order.
    key = lo * len(roots) + hi
    by_pair = np.argsort(key, kind="stable")
    start = np.flatnonzero(np.diff(key[by_pair], prepend=-1))
    first = by_pair[start]  # each pair's first communication edge
    adjacent = np.logical_or.reduceat(between_roots[by_pair], start)
    emit = np.argsort(lo[first] * len(key) + first)  # by earlier root, then first edge
    return lo[first[emit]], hi[first[emit]], adjacent[emit]


def _spanning_forest(size: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning forest over nodes ``0 .. size - 1``, by Borůvka.

    Edge ``i`` joins ``lo[i]`` and ``hi[i]`` and weighs ``i``.  The weights
    are distinct, so the forest is unique: it holds exactly the edges that
    Kruskal keeps when it takes them in order.  Returns ``(kept,
    component)``: the mask of those edges, and each node's component,
    named by one of its nodes.
    """
    component = np.arange(size)
    kept = np.zeros(len(lo), dtype=bool)
    live = np.arange(len(lo))
    while True:
        ends_lo, ends_hi = component[lo[live]], component[hi[live]]
        between = ends_lo != ends_hi
        live, ends_lo, ends_hi = live[between], ends_lo[between], ends_hi[between]
        if not live.size:
            return kept, component
        # Every component picks its lightest edge out and hooks onto the
        # component across it; two components that picked the same edge
        # hook onto each other, and the smaller one stays a root.
        lightest = np.full(size, len(lo))
        np.minimum.at(lightest, ends_lo, live)
        np.minimum.at(lightest, ends_hi, live)
        hooked = np.flatnonzero(lightest < len(lo))
        edge = lightest[hooked]
        kept[edge] = True
        across = component[lo[edge]] + component[hi[edge]] - hooked
        parent = np.arange(size)
        parent[hooked] = across
        mutual = (parent[across] == hooked) & (hooked < across)
        parent[hooked[mutual]] = hooked[mutual]
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        component = parent[component]


def _two_hop_middles(
    indptr: np.ndarray, heads: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Middle node of ``nx.bidirectional_shortest_path`` from node
    ``sources[i]`` to node ``targets[i]`` where the two are two hops apart;
    -1 where they are further apart or either is -1 (outside the graph).

    No source neighbours its target.  At two hops the search returns the
    first node of the target's row that neighbours the source: it expands
    the source, then the target, and stops at the first node there that
    it has reached.  When the source has one neighbour besides itself,
    the search expands that neighbour instead, and it is then the only
    node of the target's row next to the source.
    """
    near_source, source_row = _rows(indptr, heads, sources)
    near_target, target_row = _rows(indptr, heads, targets)
    width = len(indptr)  # more than any node position
    common = np.flatnonzero(
        np.isin(target_row * width + near_target, source_row * width + near_source)
    )
    first = common[np.diff(target_row[common], prepend=-1) != 0]  # first in each row
    middle = np.full(len(targets), -1)
    middle[target_row[first]] = near_target[first]
    return middle


def _rows(
    indptr: np.ndarray, heads: np.ndarray, which: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of nodes *which* end to end, as ``(neighbours, row)``:
    ``neighbours[i]`` is in the row of node ``which[row[i]]``.  Node -1
    has an empty row."""
    start = indptr[which]
    length = np.where(which >= 0, indptr[which + 1] - start, 0)
    row = np.repeat(np.arange(len(which)), length)
    within = np.arange(len(row)) - np.repeat(np.cumsum(length) - length, length)
    return heads[start[row] + within], row
