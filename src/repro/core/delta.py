"""δ-clusters and δ-clusterings (paper §2.1).

A **δ-cluster** is a set of nodes *C* such that

1. the communication subgraph induced by *C* is connected, and
2. every pair of nodes in *C* has feature distance at most δ
   (*δ-compactness*).

A **δ-clustering** partitions the communication graph into disjoint
δ-clusters; quality is measured by the number of clusters (fewer is
better).  Finding the optimum is NP-complete and inapproximable within
``n^φ`` (Theorem 1), which is why the paper proposes heuristics.

:class:`Clustering` is the result type shared by ELink and every baseline:
an assignment of nodes to cluster roots plus, per cluster, a *cluster tree*
(parent pointers embedded in the communication graph) and the root feature
used for δ/2 containment and query pruning.  :func:`validate_clustering`
checks the full δ-clustering definition and is used throughout the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro.features.metrics import Metric


@dataclass
class Clustering:
    """A δ-clustering with embedded cluster trees.

    Attributes
    ----------
    assignment:
        Mapping node -> cluster root id.  Roots map to themselves.
    parent:
        Cluster-tree parent pointers; every non-root's parent is a
        communication-graph neighbour, roots point to themselves.
    root_features:
        Mapping root -> the *pruning feature* of the cluster.  Every member
        is guaranteed to be within δ/2 of this feature (for ELink it is the
        feature of the sentinel that grew the cluster; a repaired split
        component inherits the original root's feature so the guarantee is
        preserved).
    """

    assignment: dict[Hashable, Hashable]
    parent: dict[Hashable, Hashable]
    root_features: dict[Hashable, np.ndarray]
    _members: dict[Hashable, list[Hashable]] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of clusters in the result."""
        return len(self.root_features)

    @property
    def roots(self) -> list[Hashable]:
        """Cluster root ids."""
        return list(self.root_features)

    def root_of(self, node: Hashable) -> Hashable:
        """The cluster root *node* belongs to."""
        return self.assignment[node]

    def members(self, root: Hashable) -> list[Hashable]:
        """Member list of the cluster rooted at *root* (including the root)."""
        return list(self._members_map()[root])

    def clusters(self) -> dict[Hashable, list[Hashable]]:
        """Mapping root -> member list (including the root)."""
        return {root: list(nodes) for root, nodes in self._members_map().items()}

    def _members_map(self) -> dict[Hashable, list[Hashable]]:
        if self._members is None:
            members: dict[Hashable, list[Hashable]] = {root: [] for root in self.root_features}
            for node, root in self.assignment.items():
                members[root].append(node)
            self._members = members
        return self._members

    def tree_children(self) -> dict[Hashable, list[Hashable]]:
        """Mapping node -> its cluster-tree children."""
        children: dict[Hashable, list[Hashable]] = {node: [] for node in self.assignment}
        for node, par in self.parent.items():
            if par != node:
                children[par].append(node)
        return children

    def path_to_root(self, node: Hashable) -> list[Hashable]:
        """Cluster-tree path ``[node, ..., root]``; raises on a parent cycle."""
        path = [node]
        seen = {node}
        current = node
        while self.parent[current] != current:
            current = self.parent[current]
            if current in seen:
                raise ValueError(f"cluster-tree parent cycle at {current!r}")
            seen.add(current)
            path.append(current)
        return path

    def cluster_sizes(self) -> list[int]:
        """Sorted list of cluster sizes."""
        return sorted(len(nodes) for nodes in self._members_map().values())

    def __repr__(self) -> str:
        return f"Clustering(clusters={self.num_clusters}, nodes={len(self.assignment)})"


@dataclass(frozen=True)
class ClusteringViolation:
    """One violation of the δ-clustering definition, for diagnostics."""

    kind: str  # "coverage" | "connectivity" | "compactness" | "tree"
    detail: str


#: Default cap on violating pairs reported per cluster.  A badly broken
#: cluster has O(n²) violating pairs; 16 is plenty for diagnostics.
MAX_VIOLATING_PAIRS = 16


def check_delta_compact(
    nodes: list[Hashable],
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    delta: float,
    *,
    limit: int | None = MAX_VIOLATING_PAIRS,
) -> list[tuple[Hashable, Hashable, float]]:
    """Return the violating pairs ``(a, b, distance)`` among *nodes*.

    Empty when *nodes* are pairwise within δ.  At most *limit* pairs are
    collected (``None`` for no cap); pass ``limit=1`` to use the check as
    an early-exiting predicate.  Each entry carries the offending distance
    so callers never recompute it.
    """
    violations: list[tuple[Hashable, Hashable, float]] = []
    for i, a in enumerate(nodes):
        feature_a = features[a]
        for b in nodes[i + 1 :]:
            distance = metric.distance(feature_a, features[b])
            if distance > delta + 1e-9:
                violations.append((a, b, distance))
                if limit is not None and len(violations) >= limit:
                    return violations
    return violations


def validate_clustering(
    graph: nx.Graph,
    clustering: Clustering,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    delta: float,
    *,
    check_trees: bool = True,
) -> list[ClusteringViolation]:
    """Check the full δ-clustering definition; returns all violations found.

    Checks: (1) every graph node is assigned exactly once, (2) each
    cluster's induced subgraph is connected (validated on the members
    actually present in the graph; members absent from the graph are an
    explicit violation), (3) each cluster is pairwise δ-compact (violating
    pairs are reported up to :data:`MAX_VIOLATING_PAIRS` per cluster), and
    optionally (4) cluster trees are spanning trees of the member subgraph
    whose edges are communication-graph edges.
    """
    violations: list[ClusteringViolation] = []

    assigned = set(clustering.assignment)
    graph_nodes = set(graph.nodes)
    for node in graph_nodes - assigned:
        violations.append(ClusteringViolation("coverage", f"node {node!r} unassigned"))
    for node in assigned - graph_nodes:
        violations.append(ClusteringViolation("coverage", f"unknown node {node!r} assigned"))

    for root, nodes in clustering.clusters().items():
        if root not in set(nodes):
            violations.append(
                ClusteringViolation("coverage", f"root {root!r} not a member of its cluster")
            )
        # Connectivity is validated on the members actually present in the
        # graph: ``graph.subgraph`` silently drops unknown nodes, so a
        # cluster containing them must not pass as "connected" by default —
        # the dropped members get their own explicit violation.
        present = [node for node in nodes if node in graph_nodes]
        dropped = [node for node in nodes if node not in graph_nodes]
        if dropped:
            violations.append(
                ClusteringViolation(
                    "connectivity",
                    f"cluster {root!r}: members {dropped[:MAX_VIOLATING_PAIRS]!r} "
                    "are not in the graph (connectivity checked on the rest)",
                )
            )
        if present and not nx.is_connected(graph.subgraph(present)):
            violations.append(
                ClusteringViolation(
                    "connectivity", f"cluster {root!r} induces a disconnected subgraph"
                )
            )
        for a, b, distance in check_delta_compact(nodes, features, metric, delta):
            violations.append(
                ClusteringViolation(
                    "compactness",
                    f"cluster {root!r}: d({a!r},{b!r}) = "
                    f"{distance:.4f} > delta={delta}",
                )
            )
        if check_trees:
            violations.extend(_validate_tree(graph, clustering, root, nodes))
    return violations


def _validate_tree(
    graph: nx.Graph, clustering: Clustering, root: Hashable, nodes: list[Hashable]
) -> list[ClusteringViolation]:
    violations: list[ClusteringViolation] = []
    member_set = set(nodes)
    for node in nodes:
        par = clustering.parent.get(node)
        if par is None:
            violations.append(ClusteringViolation("tree", f"node {node!r} has no parent pointer"))
            continue
        if node == root:
            if par != node:
                violations.append(
                    ClusteringViolation("tree", f"root {root!r} parent must be itself")
                )
            continue
        if par not in member_set:
            violations.append(
                ClusteringViolation("tree", f"node {node!r} parent {par!r} outside its cluster")
            )
        elif not graph.has_edge(node, par):
            violations.append(
                ClusteringViolation("tree", f"tree edge {node!r}-{par!r} not a graph edge")
            )
    # Reachability: following parents from every member must reach the root.
    for node in nodes:
        try:
            path = clustering.path_to_root(node)
        except (ValueError, KeyError) as exc:
            violations.append(ClusteringViolation("tree", f"path from {node!r} broken: {exc}"))
            continue
        if path[-1] != root:
            violations.append(
                ClusteringViolation(
                    "tree", f"node {node!r} tree path ends at {path[-1]!r}, not root {root!r}"
                )
            )
    return violations


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
