"""Reference leader-backbone build: the networkx formulation, kept as an oracle.

This is the original ``repro.index.backbone.build_backbone``: it builds
the cluster adjacency graph as an ``nx.Graph``, weights every edge with
``nx.shortest_path_length``, takes ``nx.minimum_spanning_tree``, routes
every tree edge with ``nx.shortest_path`` and builds its own tree graph
from the spanning tree's edges (the production build makes its graph
from the paths on first read instead).  The production build must
reproduce its tree, paths, build cost and stats exactly
(``tests/test_backbone_identity.py``); nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import networkx as nx

from repro.core.delta import Clustering
from repro.index.backbone import BackboneTree
from repro.sim.messages import Message
from repro.sim.stats import MessageStats


def build_backbone(graph: nx.Graph, clustering: Clustering) -> BackboneTree:
    """Build the leader backbone tree (see module docstring)."""
    roots = clustering.roots
    stats = MessageStats()
    if len(roots) == 1:
        return _with_tree(BackboneTree(roots, {}, 0, stats), _single(roots[0]))

    adjacency = nx.Graph()
    adjacency.add_nodes_from(roots)
    assignment = clustering.assignment
    for a, b in graph.edges:
        ra, rb = assignment[a], assignment[b]
        if ra != rb:
            adjacency.add_edge(ra, rb)
    if not nx.is_connected(adjacency):
        # The communication graph is connected, so cluster adjacency must
        # be too; a disconnect indicates a broken clustering.
        raise ValueError("cluster adjacency graph is disconnected")

    for ra, rb in adjacency.edges:
        adjacency[ra][rb]["weight"] = nx.shortest_path_length(graph, ra, rb)
    mst = nx.minimum_spanning_tree(adjacency, weight="weight")

    paths: dict[tuple[Hashable, Hashable], Sequence[Hashable]] = {}
    for ra, rb in mst.edges:
        path = nx.shortest_path(graph, ra, rb)
        paths[(ra, rb)] = path
        # Handshake: 2 control values per hop of the backbone edge.
        stats.record(Message("feature", ra, rb, values=2), hops=len(path) - 1)

    tree = nx.Graph()
    tree.add_nodes_from(roots)
    tree.add_edges_from(mst.edges)
    return _with_tree(BackboneTree(roots, paths, stats.total_values, stats), tree)


def _with_tree(backbone: BackboneTree, tree: nx.Graph) -> BackboneTree:
    """*backbone* holding the oracle's own *tree* instead of one built lazily."""
    backbone.tree = tree
    return backbone


def _single(root: Hashable) -> nx.Graph:
    tree = nx.Graph()
    tree.add_node(root)
    return tree
