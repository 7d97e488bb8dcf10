"""Reference clustering assembly: the per-root loop, kept as an oracle.

``clustering_from_assignment``, ``_member_components`` and
``_component_tree`` below are the assembly ``run_elink`` and every
baseline used before the array pass, unchanged: one member set, one
sorted seed list, one BFS and one parent-tree check per cluster root.
``final_state_dicts`` is ``run_elink``'s old dict loop over an engine's
final state, and ``final_state_assembly`` runs that assembly on it.  The
production assembly (``repro.core.delta.clustering_from_arrays``) must
reproduce its three dicts item for item, in order, with the same
root-feature objects (``tests/test_assembly_identity.py``); nothing under
``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro.core.delta import Clustering


def final_state_dicts(end, dead):
    """``run_elink``'s old dict loop: the assignment, parents, features and
    root features of *end*'s surviving nodes (*dead*: crashed nodes).

    *end* is an engine's :class:`~repro.core.elink.FinalState`.  A member
    holds its root's feature, so the root feature a node held is
    ``end.features[root]``.
    """
    assignment: dict[Hashable, Hashable] = {}
    parents: dict[Hashable, Hashable] = {}
    feature_map: dict[Hashable, np.ndarray] = {}
    root_feature_map: dict[Hashable, np.ndarray] = {}
    nodes, features = end.nodes, end.features
    for i, node_id in enumerate(nodes):
        if node_id in dead:
            continue
        r, p = int(end.roots[i]), int(end.parents[i])
        root = nodes[r] if r >= 0 else None
        root_feature = features[r] if r >= 0 else None
        parent = nodes[p] if p >= 0 else None
        if root is None:
            root, root_feature = node_id, features[i]
        assignment[node_id] = root
        parents[node_id] = node_id if parent is None else parent
        feature_map[node_id] = features[i]
        root_feature_map.setdefault(root, root_feature)
    return assignment, parents, feature_map, root_feature_map


def final_state_assembly(graph: nx.Graph, end, dead) -> Clustering:
    """The clustering ``run_elink`` assembled from *end* over *graph*."""
    assignment, parents, feature_map, root_feature_map = final_state_dicts(end, dead)
    return clustering_from_assignment(
        graph, assignment, feature_map, root_features=root_feature_map, parents=parents
    )


def clustering_from_assignment(
    graph: nx.Graph,
    assignment: Mapping[Hashable, Hashable],
    features: Mapping[Hashable, np.ndarray],
    *,
    root_features: Mapping[Hashable, np.ndarray] | None = None,
    parents: Mapping[Hashable, Hashable] | None = None,
) -> Clustering:
    """Build a :class:`Clustering` from a plain node -> root mapping.

    If *parents* (protocol-built cluster-tree pointers) are given they are
    kept wherever they form a valid spanning tree of the member subgraph;
    broken components fall back to a BFS tree.  If a cluster's member
    subgraph is disconnected (possible under ELink's bounded cluster
    switching, which may orphan a subtree), each stray connected component
    is split into its own cluster — rooted at its node closest to the
    original root feature, but *keeping the original root feature as the
    pruning feature*, so the "every member within δ/2 of the pruning
    feature" guarantee survives the split.  Baselines and the ELink
    post-processing both use this constructor, so every clustering the
    library emits satisfies the δ-cluster connectivity condition by
    construction.
    """
    members: dict[Hashable, list[Hashable]] = {}
    for node, root in assignment.items():
        members.setdefault(root, []).append(node)

    final_assignment: dict[Hashable, Hashable] = {}
    parent: dict[Hashable, Hashable] = {}
    final_root_features: dict[Hashable, np.ndarray] = {}

    # Components and BFS trees are computed with plain dict-adjacency BFS
    # in graph order — seeds in graph node order filtered to the cluster,
    # neighbours in adjacency order — without building a subgraph view
    # per cluster.
    adj = graph._adj
    graph_order = {node: i for i, node in enumerate(graph.nodes)}

    for root, nodes in members.items():
        base_feature = (
            np.asarray(root_features[root])
            if root_features is not None and root in root_features
            else np.asarray(features[root])
        )
        member_set = set(nodes)
        done: set[Hashable] = set()
        seeds = sorted(
            (v for v in nodes if v in graph_order), key=graph_order.__getitem__
        )
        for component in _member_components(adj, member_set, seeds, done):
            comp_nodes = set(component)
            if root in comp_nodes:
                comp_root = root
            else:
                # Stray component: root it at the member nearest the original
                # root feature (deterministic tie-break on repr).
                comp_root = min(
                    comp_nodes,
                    key=lambda v: (
                        float(np.linalg.norm(np.asarray(features[v]) - base_feature)),
                        repr(v),
                    ),
                )
            final_root_features[comp_root] = base_feature
            final_assignment[comp_root] = comp_root
            comp_parent = _component_tree(graph, comp_nodes, comp_root, parents)
            for node, par in comp_parent.items():
                parent[node] = par
                final_assignment[node] = comp_root
    return Clustering(final_assignment, parent, final_root_features)


def _member_components(
    adj: Mapping[Hashable, Mapping[Hashable, dict]],
    member_set: set[Hashable],
    seeds: list[Hashable],
    done: set[Hashable],
) -> list[set[Hashable]]:
    """Connected components of the subgraph induced by *member_set*.

    One BFS per unvisited seed, in *seeds* order (callers pass graph node
    order filtered to the members), each node's neighbours in adjacency
    order.  The components equal those of ``nx.connected_components`` on
    ``graph.subgraph(member_set)`` as sets, but not always in its order:
    networkx's filtered views iterate their hash-ordered node set when it
    is under half the map they filter, so its components and their
    members can come out in another order.  This sweep runs in graph
    node order, and the dicts built from its components follow it.
    """
    components: list[set[Hashable]] = []
    for source in seeds:
        if source in done:
            continue
        seen = {source}
        nextlevel = [source]
        while nextlevel:
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                for w in adj[v]:
                    if w in member_set and w not in seen:
                        seen.add(w)
                        nextlevel.append(w)
        done |= seen
        components.append(seen)
    return components


def _component_tree(
    graph: nx.Graph,
    comp_nodes: set[Hashable],
    comp_root: Hashable,
    parents: Mapping[Hashable, Hashable] | None,
) -> dict[Hashable, Hashable]:
    """Parent pointers for one component: protocol tree if valid, else BFS."""
    if parents is not None:
        candidate: dict[Hashable, Hashable] = {comp_root: comp_root}
        valid = True
        for node in comp_nodes:
            if node == comp_root:
                continue
            par = parents.get(node)
            if par not in comp_nodes or not graph.has_edge(node, par):
                valid = False
                break
            candidate[node] = par
        if valid:
            # Every member must reach the root without cycles.
            for node in comp_nodes:
                hops, current = 0, node
                while candidate[current] != current and hops <= len(comp_nodes):
                    current = candidate[current]
                    hops += 1
                if current != comp_root:
                    valid = False
                    break
        if valid:
            return candidate
    # BFS tree over the induced subgraph: each child's parent is the first
    # node (in FIFO order, adjacency order within a node) that reaches it.
    adj = graph._adj
    tree = {comp_root: comp_root}
    visited = {comp_root}
    queue = deque([comp_root])
    while queue:
        node = queue.popleft()
        for child in adj[node]:
            if child in comp_nodes and child not in visited:
                visited.add(child)
                tree[child] = node
                queue.append(child)
    return tree
