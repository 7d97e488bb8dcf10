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
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.features.metrics import Metric
from repro.geometry.topology import adjacency_arrays


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

    def tree_children(self) -> dict[Hashable, Sequence[Hashable]]:
        """Mapping node -> its cluster-tree children, in ``parent`` order.

        Only internal nodes get a list of their own; every leaf maps to
        one shared empty tuple, so the map costs one entry per node and
        one list per internal node.
        """
        children: dict[Hashable, Sequence[Hashable]] = dict.fromkeys(self.assignment, ())
        for node, par in self.parent.items():
            if par != node:
                siblings = children[par]
                if siblings:
                    siblings.append(node)
                else:
                    children[par] = [node]
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
    for node in sorted(graph_nodes - assigned, key=repr):
        violations.append(ClusteringViolation("coverage", f"node {node!r} unassigned"))
    for node in sorted(assigned - graph_nodes, key=repr):
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
    feature" guarantee survives the split.  Baselines and maintenance use
    this constructor and ELink uses :func:`clustering_from_arrays`, which
    this one indexes its dicts for, so every clustering the library emits
    satisfies the δ-cluster connectivity condition by construction.
    *features* must hold every assigned node.
    """
    nodes = list(assignment)
    index = {node: i for i, node in enumerate(nodes)}
    members = np.arange(len(nodes), dtype=np.int64)
    roots = []
    for root in assignment.values():
        if root not in index:  # a root that is not itself assigned
            index[root] = len(nodes)
            nodes.append(root)
        roots.append(index[root])
    bases: list[np.ndarray | None] = [None] * len(nodes)
    for position in dict.fromkeys(roots):
        root = nodes[position]
        bases[position] = (
            np.asarray(root_features[root])
            if root_features is not None and root in root_features
            else np.asarray(features[root])
        )
    parent_positions = [
        index.get(parents.get(node), -1) if parents is not None else -1 for node in assignment
    ]
    return clustering_from_arrays(
        graph,
        nodes,
        np.asarray(roots, dtype=np.int64),
        np.asarray(parent_positions, dtype=np.int64),
        [features[node] for node in assignment],
        root_features=bases,
        members=members,
    )


def clustering_from_arrays(
    graph: nx.Graph,
    nodes: Sequence[Hashable],
    roots: np.ndarray,
    parents: np.ndarray,
    features: Sequence[np.ndarray],
    *,
    root_features: Sequence[np.ndarray | None] | None = None,
    members: np.ndarray | None = None,
) -> Clustering:
    """Build a :class:`Clustering` from index arrays over *nodes*.

    ``nodes[members]`` (all of *nodes* by default) are assembled, in that
    order.  Node ``p`` belongs to the cluster rooted at ``nodes[roots[p]]``
    (``roots[p] == p`` at a root) and its cluster-tree parent is
    ``nodes[parents[p]]`` (``-1``: none).  ``root_features[p]`` is the
    pruning feature of the cluster rooted at ``nodes[p]`` (*features* by
    default); ``features[p]`` is read only to root a stray component.
    *graph*'s rows are read through :func:`adjacency_arrays`.  The result
    is the one :func:`clustering_from_assignment` builds from the same
    assignment, dict order included.

    One numpy pass keeps every cluster whose protocol tree holds: its root
    is a member, every member is in *graph*, and every other member's
    parent is in its cluster, adjacent to it in *graph* and on a parent
    path that reaches the root.  Pointer jumping checks the paths: a tree
    path in a cluster of s nodes has at most s − 1 edges, so ⌈log₂(s − 1)⌉
    rounds for the largest s reach every root.  A kept cluster is
    connected, so it is emitted without a component search, root first
    (see :func:`_member_order`).  Only the clusters that fail the check
    take the per-root assembly, :func:`_split_cluster`, which repairs
    their trees and splits off stray components.
    """
    if root_features is None:
        root_features = features
    graph_nodes, graph_order, indptr, indices = adjacency_arrays(graph)
    n = len(nodes)
    if members is None:
        members = np.arange(n, dtype=np.int64)
    if members.size == 0:
        return Clustering({}, {}, {})
    # Each node's graph position (-1: not in the graph).
    if graph_nodes is nodes or graph_nodes == nodes:
        where = np.arange(n, dtype=np.int64)
    else:
        where = np.fromiter((graph_order.get(v, -1) for v in nodes), np.int64, count=n)

    # Clusters, numbered in the order their roots first appear.
    m = members.size
    root = roots[members]
    first = np.full(n, m, dtype=np.int64)
    np.minimum.at(first, root, np.arange(m))
    cluster_root = root[first[root] == np.arange(m)]
    number = np.empty(n, dtype=np.int64)
    number[cluster_root] = np.arange(cluster_root.size)
    label = number[root]
    size = np.bincount(label)
    is_root = members == cluster_root[label]
    parent = parents[members]
    item = np.full(n, -1, dtype=np.int64)
    item[members] = np.arange(m)
    at = where[members]
    kept = _tree_holds(
        label, size, is_root, np.where(parent >= 0, item[parent], -1), at, indptr, indices
    )

    # The per-root assembly of every cluster that fails the check.
    broken = np.flatnonzero(~kept).tolist()
    repaired = []
    if broken:
        rest = np.flatnonzero(~kept[label])
        rest = members[rest[np.argsort(label[rest], kind="stable")]]
        ends = np.cumsum(size[broken]).tolist()
        for k, start, stop in zip(broken, [0, *ends], ends):
            positions = rest[start:stop].tolist()
            tops = parents[positions].tolist()
            top = int(cluster_root[k])
            repaired.append(
                _split_cluster(
                    graph,
                    graph_order,
                    nodes[top],
                    [nodes[p] for p in positions],
                    root_features[top],
                    {nodes[p]: features[p] for p in positions},
                    {nodes[p]: nodes[q] if q >= 0 else None for p, q in zip(positions, tops)},
                )
            )

    # Rows (node, root, parent) in cluster order: a kept singleton is its
    # own row, a larger kept cluster its members in per-root order, a
    # broken cluster its repaired rows.
    ids = np.fromiter(nodes, dtype=object, count=n)
    width = np.where(kept, size, 0)
    width[broken] = [len(rows) for rows, _ in repaired]
    offset = np.cumsum(width) - width
    table = np.empty((3, int(width.sum())), dtype=object)
    single = np.flatnonzero(kept & (size == 1))
    table[:, offset[single]] = ids[cluster_root[single]]
    multi = np.flatnonzero(kept & (size > 1))
    if multi.size:
        inside = np.flatnonzero(kept[label] & (size[label] > 1))
        ordered = _member_order(
            graph_nodes,
            indptr,
            indices,
            at[inside],
            label[inside],
            ids[cluster_root[multi]].tolist(),
            size[multi],
        )
        up = np.where(is_root[inside], members[inside], parent[inside])
        parent_of = dict(zip(ids[members[inside]].tolist(), ids[up].tolist()))
        slots = np.repeat(offset[multi] - (np.cumsum(size[multi]) - size[multi]), size[multi])
        slots += np.arange(slots.size)
        table[0, slots] = np.fromiter(ordered, dtype=object, count=slots.size)
        table[1, slots] = np.repeat(ids[cluster_root[multi]], size[multi])
        table[2, slots] = np.fromiter(map(parent_of.__getitem__, ordered), dtype=object)
    for k, (rows, _) in zip(broken, repaired):
        for j, (node, top, up) in enumerate(rows, int(offset[k])):
            table[0, j], table[1, j], table[2, j] = node, top, up

    # Root features: one per kept cluster, one per repaired component.
    width = kept.astype(np.int64)
    width[broken] = [len(bases) for _, bases in repaired]
    offset = np.cumsum(width) - width
    root_ids = np.empty(int(width.sum()), dtype=object)
    root_values = np.empty(root_ids.size, dtype=object)
    whole = np.flatnonzero(kept)
    root_ids[offset[whole]] = ids[cluster_root[whole]]
    root_values[offset[whole]] = np.fromiter(
        map(root_features.__getitem__, cluster_root[whole].tolist()), dtype=object, count=whole.size
    )
    for k, (_, bases) in zip(broken, repaired):
        for j, (top, base) in enumerate(bases, int(offset[k])):
            root_ids[j], root_values[j] = top, base

    out_nodes, out_roots, out_parents = table.tolist()
    return Clustering(
        dict(zip(out_nodes, out_roots)),
        dict(zip(out_nodes, out_parents)),
        dict(zip(root_ids.tolist(), root_values.tolist())),
    )


def _tree_holds(
    label: np.ndarray,
    size: np.ndarray,
    is_root: np.ndarray,
    up: np.ndarray,
    at: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> np.ndarray:
    """Per cluster (sizes *size*), whether its protocol tree holds.

    Per member: its cluster number, whether it is its cluster's root, the
    member its parent is (``-1``: none, or not a member) and its graph
    position (``-1``: not in the graph).  A member is *linked* when it is
    in the graph and its parent is a member of its cluster, in the graph
    and adjacent to it.  Pointer jumping over the links (an unlinked
    member points at itself) must carry every non-root member to its
    cluster's root, and the root must be a member.
    """
    m = label.size
    linked = ~is_root & (at >= 0) & (up >= 0)
    linked[linked] = (label[up[linked]] == label[linked]) & (at[up[linked]] >= 0)
    linked[linked] = _has_edges(indptr, indices, at[linked], at[up[linked]])
    up = np.where(linked, up, np.arange(m))
    for _ in range(max(int(size.max()) - 2, 0).bit_length()):
        up = up[up]
    root_item = np.full(size.size, -1, dtype=np.int64)
    root_item[label[is_root]] = np.flatnonzero(is_root)
    ok = (at >= 0) & (is_root | (linked & (up == root_item[label])))
    return (root_item >= 0) & (np.bincount(label[~ok], minlength=size.size) == 0)


def _has_edges(
    indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Whether ``dst[i]`` is in CSR row ``src[i]``, for every i."""
    slots, count = _row_slots(indptr, src)
    pair = np.repeat(np.arange(src.size), count)
    found = np.zeros(src.size, dtype=bool)
    found[pair[indices[slots] == dst[pair]]] = True
    return found


def _row_slots(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots of CSR rows *rows*, concatenated in order, and each row's
    length."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    return np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count), count


def _member_order(
    graph_nodes: Sequence[Hashable],
    indptr: np.ndarray,
    indices: np.ndarray,
    at: np.ndarray,
    label: np.ndarray,
    roots: list[Hashable],
    sizes: np.ndarray,
) -> list[Hashable]:
    """Members of connected clusters, in the order the per-root assembly
    emits them.

    *at* and *label* give each member's graph position and cluster number;
    *roots* and *sizes* give each cluster's root and size, in ascending
    cluster number.  The per-root assembly emits the root and then the
    rest of ``set(component)``, where ``component`` is the set its BFS
    grew from the cluster's first member in graph order (neighbours in
    adjacency order).  Iteration order over a set depends on the order its
    elements were added and on their hashes, so this runs the same BFS for
    every cluster at once, one level per step, and adds each cluster's BFS
    order to a fresh set the same way.  Int ids hash to themselves, so the
    order is reproducible for them; for string ids it follows
    ``PYTHONHASHSEED``.
    """
    cluster = np.full(len(graph_nodes), -1, dtype=np.int64)
    cluster[at] = label
    by_cluster = np.lexsort((at, label))
    head = np.ones(by_cluster.size, dtype=bool)
    head[1:] = label[by_cluster[1:]] != label[by_cluster[:-1]]
    frontier = at[by_cluster[head]]
    seen = np.zeros(len(graph_nodes), dtype=bool)
    seen[frontier] = True
    levels = [frontier]
    while frontier.size:
        slots, count = _row_slots(indptr, frontier)
        reached = indices[slots]
        reached = reached[(cluster[reached] == np.repeat(cluster[frontier], count)) & ~seen[reached]]
        _, once = np.unique(reached, return_index=True)
        frontier = reached[np.sort(once)]
        seen[frontier] = True
        levels.append(frontier)
    visits = np.concatenate(levels)
    visits = visits[np.argsort(cluster[visits], kind="stable")].tolist()
    visit_ids = [graph_nodes[g] for g in visits]
    ordered: list[Hashable] = []
    start = 0
    for root, stop in zip(roots, np.cumsum(sizes).tolist()):
        # The BFS set, then the per-root assembly's copy of it.
        component = set(set(visit_ids[start:stop]))
        component.discard(root)
        ordered.append(root)
        # Set order on purpose: fig10's pinned message total depends on it
        # through maintenance.
        ordered.extend(component)  # det-ok: the per-root member order
        start = stop
    return ordered


def _split_cluster(
    graph: nx.Graph,
    graph_order: Mapping[Hashable, int],
    root: Hashable,
    nodes: list[Hashable],
    base_feature: np.ndarray,
    features: Mapping[Hashable, np.ndarray],
    parents: Mapping[Hashable, Hashable | None],
) -> tuple[list[tuple[Hashable, Hashable, Hashable]], list[tuple[Hashable, np.ndarray]]]:
    """The per-root assembly of one cluster (the fallback of the array pass).

    Splits the cluster rooted at *root* with members *nodes* into the
    connected components of its member subgraph, found by BFS from the
    members in graph order.  The component holding *root* keeps it; a
    stray component is rooted at its member nearest *base_feature*, which
    stays its pruning feature.  Each component keeps its protocol tree
    (*parents*) if valid and gets a BFS tree otherwise.  Returns the
    ``(node, component root, parent)`` rows and the ``(component root,
    pruning feature)`` pairs, in emission order.
    """
    rows: list[tuple[Hashable, Hashable, Hashable]] = []
    bases: list[tuple[Hashable, np.ndarray]] = []
    member_set = set(nodes)
    done: set[Hashable] = set()
    seeds = sorted((v for v in nodes if v in graph_order), key=graph_order.__getitem__)
    for component in _member_components(graph._adj, member_set, seeds, done):
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
        bases.append((comp_root, base_feature))
        tree = _component_tree(graph, comp_nodes, comp_root, parents)
        rows.extend((node, comp_root, par) for node, par in tree.items())
    return rows, bases


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
        # Set order on purpose: it is the member order of every emitted
        # cluster, which fig10's pinned message total depends on.
        for node in comp_nodes:  # det-ok: the emitted member order
            if node == comp_root:
                continue
            par = parents.get(node)
            if par not in comp_nodes or not graph.has_edge(node, par):
                valid = False
                break
            candidate[node] = par
        if valid:
            # Every member must reach the root without cycles.
            for node in comp_nodes:  # det-ok: all must pass, order-free
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
