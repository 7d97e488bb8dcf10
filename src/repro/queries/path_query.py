"""Path queries over the clustered network (paper §7.3).

During a hazard (pollutant leak, fire), a rescue path from *x* to *y* must
keep every node on the path at least γ away — in feature space — from the
danger feature ``F_D``:

    return a path x -> y such that d(F_j, F_D) >= γ for every node j on it.

Clustered algorithm:

1. Classify clusters with δ-compactness-style pruning on the root: with
   ``R_root`` the covering radius, a cluster is **safe** when
   ``d(F_root, F_D) - R_root >= γ`` (every member is), **unsafe** when
   ``d(F_root, F_D) + R_root < γ`` (no member is), and **boundary**
   otherwise, in which case the M-tree is drilled to label safe/unsafe
   *sub-clusters* (charged per visited tree edge).
2. Spatially contiguous safe regions are joined by safe backbone trees;
   the source's region is searched (BFS over region-level adjacency) for
   the destination, and the path is traced back.

If source and destination fall in different safe regions, no safe path
exists and the query is suppressed at the source's root — the paper's
early-exit.

:class:`PathQueryEngine` runs three plans that share one routing tail, so
they return identical routes for the same safe set: the drill-down above
(:meth:`~PathQueryEngine.query`), the same classification with boundary
clusters flooded instead of drilled
(:meth:`~PathQueryEngine.backbone_query`), and a flood of the source's
whole safe component (:meth:`~PathQueryEngine.flood_query`).

The BFS-flooding baseline (:func:`bfs_flood_path`) instead floods the
query through the safe part of the network from the source and stops at
the destination: every reached safe node rebroadcasts once, so the cost is
~2 values per edge incident to the flooded region, plus the path
trace-back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_non_negative
from repro.core.delta import _member_components
from repro.features.metrics import Metric
from repro.queries.context import DROP_DEAD_ENDPOINT, DROP_DEAD_ROOT, QueryContext
from repro.sim.messages import Message
from repro.sim.stats import MessageStats


@dataclass
class PathQueryResult:
    """A safe path (or None) plus the communication spent."""

    path: list[Hashable] | None
    messages: int
    safe_nodes: int
    clusters_drilled: int
    #: Fraction of surviving nodes whose cluster the query could classify
    #: (1.0 unless crashes removed cluster representatives).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead roots/endpoints);
    #: per-reason detail is mirrored into the context's metrics registry.
    drops: int = 0


class PathQueryEngine:
    """Safe-path search over *graph* and one :class:`~repro.queries.context.QueryContext`.

    The path plans classify clusters by their root balls and route over
    *graph*; they never walk the backbone, so the context may have none.
    ``dead`` and ``metrics`` come from the context; its
    ``root_replacements`` are never read.  After fail-stop crashes,
    clusters whose representative died are excluded from the safe set —
    their surviving members cannot be classified, so they count as
    uncovered and the result carries a coverage fraction instead of a
    crash.  Dead nodes are never part of a returned path, and a dead
    endpoint answers "no path" at once.  A fault-free context leaves the
    fault-free path untouched.

    Degraded-path losses are recorded in the per-query ``MessageStats``
    under ``drops_by_reason`` (``dead_root`` / ``dead_endpoint``) and
    mirrored into ``queries.drops.<reason>`` counters when the context
    has a metrics registry, so both accounting systems agree.
    """

    def __init__(self, context: QueryContext, graph: nx.Graph):
        self.context = context
        self.graph = graph

    # ------------------------------------------------------------------
    def query(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
    ) -> PathQueryResult:
        """Find a safe path from *source* to *destination* (or prove none)."""
        return self._classified(source, destination, danger, gamma, drill=True)

    def backbone_query(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
    ) -> PathQueryResult:
        """The plan without the index: boundary clusters are flooded, not drilled."""
        return self._classified(source, destination, danger, gamma, drill=False)

    def flood_query(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
    ) -> PathQueryResult:
        """Flood the source's whole safe region, then trace the route.

        Unlike :func:`bfs_flood_path` this floods the entire safe component
        (no early exit), which is what makes the route the same one the
        clustered plans return.  Every flooded node rebroadcasts once
        (2 values per incident edge).
        """
        require_non_negative(gamma, "gamma")
        danger = np.asarray(danger, dtype=np.float64)
        ctx = self.context
        stats = MessageStats()
        if ctx.metric.distance(ctx.features[source], danger) < gamma:
            return PathQueryResult(None, 0, 0, 0)
        safe = {
            node
            for node, feature in ctx.features.items()
            if ctx.metric.distance(feature, danger) >= gamma
        }
        component = _member_components(self.graph._adj, safe, [source], set())[0]
        ctx.charge(stats, 2, sum(self.graph.degree(node) for node in component))
        return self._route(source, destination, safe, 0, stats, 1.0, flooded=len(component))

    # ------------------------------------------------------------------
    def _classified(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
        drill: bool,
    ) -> PathQueryResult:
        """Label every node safe/unsafe cluster by cluster, then route.

        Clusters with a dead representative cannot be classified: their
        surviving members are left out of the safe set and counted as
        uncovered in the coverage fraction.
        """
        require_non_negative(gamma, "gamma")
        danger = np.asarray(danger, dtype=np.float64)
        ctx = self.context
        stats = MessageStats()
        # A dead endpoint can neither send the query nor terminate the
        # path: answer "no path" with zero coverage instead of silently
        # classifying clusters for an unanswerable question.
        if source in ctx.dead or destination in ctx.dead:
            ctx.drop(stats, DROP_DEAD_ENDPOINT)
            return PathQueryResult(None, 0, 0, 0, 0.0, stats.total_drops)

        # The source routes the query to its cluster root, which reaches
        # each other root over the backbone: approximated as one charge
        # per classified cluster.
        query_values = ctx.dim + 1
        hops = ctx.entry_hops(source)
        safe: set[Hashable] = set()
        drilled = 0
        lost: list[Hashable] = []
        for root, d, radius in zip(ctx.clustering.roots, ctx.ball_distances(danger), ctx.ball_radii):
            if root in ctx.dead:
                # The classification request to this root is undeliverable.
                ctx.drop(stats, DROP_DEAD_ROOT)
                lost.append(root)
                continue
            hops += 1
            if d - radius >= gamma:
                safe.update(ctx.clustering.members(root))
                continue
            if d + radius < gamma:
                continue
            drilled += 1
            if drill:
                safe.update(self._drill(root, danger, gamma, stats))
                continue
            members = ctx.alive_members(root)
            hops += max(len(members) - 1, 0)  # classify members over the tree
            safe.update(
                m for m in members if ctx.metric.distance(ctx.features[m], danger) >= gamma
            )
        ctx.charge(stats, query_values, hops)
        safe.difference_update(ctx.dead)
        return self._route(source, destination, safe, drilled, stats, ctx.coverage(lost))

    def _drill(
        self, root: Hashable, danger: np.ndarray, gamma: float, stats: MessageStats
    ) -> set[Hashable]:
        """M-tree drill-down labelling safe sub-clusters of one cluster."""
        ctx = self.context
        mtree = ctx.mtree
        safe: set[Hashable] = set()
        edges = 0
        stack: list[Hashable] = [root]
        while stack:
            node = stack.pop()
            if ctx.metric.distance(danger, mtree.routing_feature[node]) >= gamma:
                safe.add(node)
            for child in mtree.children[node]:
                # Every child is asked once: safe and unsafe sub-clusters
                # are settled by their ball, boundary ones drilled further.
                edges += 1
                d_child_route = ctx.metric.distance(danger, mtree.routing_feature[child])
                r_child = mtree.covering_radius[child]
                if d_child_route - r_child >= gamma:
                    safe.update(ctx.subtree(child))
                elif d_child_route + r_child >= gamma:
                    stack.append(child)
        ctx.charge(stats, ctx.dim + 1, edges)
        return safe

    def _route(
        self,
        source: Hashable,
        destination: Hashable,
        safe: set[Hashable],
        drilled: int,
        stats: MessageStats,
        coverage: float,
        *,
        flooded: int | None = None,
    ) -> PathQueryResult:
        """The routing tail every plan shares: the canonical route through *safe*.

        Safe regions are the connected components of the safe-induced
        subgraph.  The clustered plans charge the region-level search
        (2 values per safe cluster-root region traversed); the flood plan
        already paid per node and reports its *flooded* count.  Every
        plan charges the trace-back (1 value per hop).
        """
        count = len(safe) if flooded is None else flooded
        path = None
        if source in safe and destination in safe:
            component = _member_components(self.graph._adj, safe, [source], set())[0]
            if destination in component:
                if flooded is None:
                    regions = {self.context.clustering.root_of(node) for node in component}
                    self.context.charge(stats, 2, len(regions))
                safe_sub = self.graph.subgraph(safe)
                path = list(nx.shortest_path(safe_sub.subgraph(component), source, destination))
                self.context.charge(stats, 1, len(path) - 1)
        return PathQueryResult(
            path, stats.total_values, count, drilled, coverage, stats.total_drops
        )


def maximin_safe_path(
    graph: nx.Graph,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    source: Hashable,
    destination: Hashable,
    danger: np.ndarray,
) -> PathQueryResult:
    """The *safest* path: maximize the minimum danger distance en route.

    §7.3 asks for any path clearing a fixed margin γ; rescue planning often
    wants the best achievable margin instead.  This is the classic maximin
    (bottleneck) path problem, solved with a Dijkstra variant that grows
    the widest bottleneck first.  Communication is charged like a safe
    flood over the visited region (each expanded node broadcasts once),
    making costs comparable with :func:`bfs_flood_path`.

    The returned :attr:`PathQueryResult.safe_nodes` is the number of nodes
    expanded; the achieved bottleneck is the minimum danger distance over
    the returned path.
    """
    danger = np.asarray(danger, dtype=np.float64)
    stats = MessageStats()
    safety = {node: metric.distance(features[node], danger) for node in graph.nodes}

    import heapq

    # Max-heap on the bottleneck value achieved when reaching a node.
    best_bottleneck = {source: safety[source]}
    parents: dict[Hashable, Hashable] = {source: source}
    heap = [(-safety[source], repr(source), source)]
    expanded: set[Hashable] = set()
    while heap:
        negative, _, node = heapq.heappop(heap)
        if node in expanded:
            continue
        expanded.add(node)
        degree = graph.degree(node)
        if degree:
            stats.record(Message("query", node, None, values=2), hops=degree)
        if node == destination:
            break
        bottleneck = -negative
        for neighbor in graph.neighbors(node):
            candidate = min(bottleneck, safety[neighbor])
            if candidate > best_bottleneck.get(neighbor, -1.0):
                best_bottleneck[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (-candidate, repr(neighbor), neighbor))

    if destination not in parents:
        return PathQueryResult(None, stats.total_values, len(expanded), 0)
    path = [destination]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    if len(path) > 1:
        stats.record(Message("query", destination, source, values=1), hops=len(path) - 1)
    return PathQueryResult(list(path), stats.total_values, len(expanded), 0)


def bfs_flood_path(
    graph: nx.Graph,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    source: Hashable,
    destination: Hashable,
    danger: np.ndarray,
    gamma: float,
) -> PathQueryResult:
    """Baseline: flood the query through safe nodes from the source.

    Every reached safe node rebroadcasts the query once (2 values per copy,
    query id + hop pointer); unsafe nodes drop it.  The path is traced back
    along BFS parents (1 value per hop).
    """
    require_non_negative(gamma, "gamma")
    danger = np.asarray(danger, dtype=np.float64)
    stats = MessageStats()

    def is_safe(node: Hashable) -> bool:
        return metric.distance(features[node], danger) >= gamma

    if not is_safe(source):
        return PathQueryResult(None, 0, 0, 0)

    parents: dict[Hashable, Hashable] = {source: source}
    frontier = [source]
    reached = {source}
    while frontier:
        next_frontier: list[Hashable] = []
        for node in frontier:
            # Broadcast to every neighbour (the flood's per-node cost).
            degree = graph.degree(node)
            if degree:
                stats.record(Message("query", node, None, values=2), hops=degree)
            for neighbor in graph.neighbors(node):
                if neighbor in reached or not is_safe(neighbor):
                    continue
                reached.add(neighbor)
                parents[neighbor] = node
                next_frontier.append(neighbor)
        frontier = next_frontier
        if destination in reached:
            break

    if destination not in reached:
        return PathQueryResult(None, stats.total_values, len(reached), 0)
    path = [destination]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    if len(path) > 1:
        stats.record(Message("query", destination, source, values=1), hops=len(path) - 1)
    return PathQueryResult(path, stats.total_values, len(reached), 0)
