"""k-nearest-neighbour queries over the distributed index (extension).

"Which k sensors behave most like this model?" is the ranking twin of the
paper's range query, and the M-tree supports it with the classic
best-first search: visit clusters and subtrees in order of their
*optimistic* distance bound ``max(0, d(q, F^R) - R)`` and stop when the
k-th best confirmed distance beats every unvisited bound.  The same
triangle-inequality machinery as §7 does the pruning; communication is
charged per visited backbone edge and cluster-tree edge, exactly like the
range engine, so costs are comparable.  The backbone plan
(:meth:`KnnQueryEngine.backbone_query`) scans every reachable cluster
instead, merging k candidates per edge on the way back.

Degraded operation follows the shared rules of
:class:`~repro.queries.context.QueryContext`: given a context with a
``dead`` set (the crashed nodes), the search answers from the reachable
part of the network with a ``coverage`` fraction instead of crashing —
dead backbone relays and a split backbone cut off their far-side
clusters, dead nodes are never ranked, and an initiator whose own
representative died (and was not re-elected) is answered from its
surviving cluster members alone.  The context's ``root_replacements``
let re-elected representatives stand in for dead roots with a
conservative covering ball.  Every degraded-path loss is recorded in the
per-query ``MessageStats`` ``drops_by_reason`` (``dead_relay`` /
``dead_root`` / ``no_survivors``) and mirrored into the context's
``queries.drops.<reason>`` metrics counters, so both accounting systems
agree — the same double-entry contract the range engine keeps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro._validation import require_int_at_least
from repro.features.metrics import Metric
from repro.queries.context import QueryContext
from repro.sim.stats import MessageStats


@dataclass
class KnnResult:
    """The k nearest nodes (sorted by distance) plus the cost."""

    neighbors: list[tuple[Hashable, float]]
    messages: int
    nodes_visited: int
    #: Fraction of surviving nodes whose cluster the query could consult
    #: (1.0 unless crashes severed parts of the backbone).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead relays/roots);
    #: per-reason detail is mirrored into the context's metrics registry.
    drops: int = 0


class KnnQueryEngine:
    """Best-first k-NN search over one :class:`~repro.queries.context.QueryContext`.

    The context must carry a backbone (``ValueError`` otherwise).
    ``dead``, ``root_replacements`` and ``metrics`` come from the
    context: a degraded context switches on the degraded mode described
    in the module docstring, and its metrics registry, when it has one,
    receives ``queries.drops.<reason>`` counters that agree with each
    result's ``drops`` total.
    """

    def __init__(self, context: QueryContext):
        if context.backbone is None:
            raise ValueError("KnnQueryEngine needs a QueryContext with a backbone")
        self.context = context

    def query(self, q: np.ndarray, k: int, initiator: Hashable) -> KnnResult:
        """Return the *k* nodes with smallest feature distance to *q*."""
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        ctx = self.context
        stats = MessageStats()
        query_values = ctx.dim + 1
        counter = itertools.count()  # deterministic heap tie-break

        # Route to the initiator's root first (as in §7.2).
        origin = ctx.clustering.root_of(initiator)
        if ctx.unreachable(origin):
            return self._local_only(q, k, origin, stats)
        entry_hops = ctx.entry_hops(initiator)
        ctx.charge(stats, query_values, entry_hops)
        ctx.charge(stats, 1, entry_hops)
        # Backbone roots reachable from the start, with their hop distance;
        # the rest are uncovered.
        reached, _, lost = ctx.walk(ctx.effective(origin), stats)

        # Best-first frontier over (bound, kind, payload).  Cluster roots
        # enter with their optimistic bound; expanding a root enqueues its
        # M-tree children; expanding a node confirms its own distance.
        best: list[tuple[float, Hashable]] = []  # max-heap via negation

        def admit(node: Hashable, distance: float) -> None:
            if len(best) < k:
                heapq.heappush(best, (-distance, node))
            elif distance < -best[0][0]:
                heapq.heapreplace(best, (-distance, node))

        def kth_bound() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        frontier: list[tuple[float, int, Hashable]] = []
        for root, d, r_root in zip(ctx.clustering.roots, ctx.ball_distances(q), ctx.ball_radii):
            if ctx.effective(root) not in reached:
                continue  # severed from the backbone: uncovered
            bound = max(0.0, d - r_root)
            heapq.heappush(frontier, (bound, next(counter), root))

        visited = 0
        reached_roots = {origin}
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > kth_bound():
                break  # nothing unvisited can improve the answer
            root = ctx.clustering.root_of(node)
            if root not in reached_roots:
                reached_roots.add(root)
                hops = reached[ctx.effective(root)]
                ctx.charge(stats, query_values, hops)
                ctx.charge(stats, 1, hops)
            if node != root:
                # Travelling one cluster-tree edge to this node.
                ctx.charge(stats, query_values, 1)
                ctx.charge(stats, 1, 1)
            visited += 1
            if node not in ctx.dead:
                admit(node, ctx.metric.distance(q, ctx.features[node]))
            for child, (d_pc, r_child) in ctx.mtree.child_info[node].items():
                # The parent holds its children's routing features (it
                # received them during the bottom-up build), so the tight
                # M-tree bound d(q, F_child^R) - R_child is local.
                d_child = ctx.metric.distance(q, ctx.mtree.routing_feature[child])
                child_bound = max(0.0, d_child - r_child)
                if child_bound <= kth_bound():
                    heapq.heappush(frontier, (child_bound, next(counter), child))

        neighbors = sorted(((node, -negative) for negative, node in best), key=lambda kv: (kv[1], repr(kv[0])))
        return KnnResult(
            neighbors, stats.total_values, visited, ctx.coverage(lost), stats.total_drops
        )

    def backbone_query(self, q: np.ndarray, k: int, initiator: Hashable) -> KnnResult:
        """The plan without the index: an exhaustive scan over the backbone.

        Every reachable cluster floods its surviving members, so the answer
        equals brute force over the pool the best-first search draws from.
        Each traversed edge — cluster-tree entry hops, backbone hops and
        cluster-tree edges alike — carries ``dim+1`` values down and the
        k-best merge back (k values).
        """
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        ctx = self.context
        stats = MessageStats()
        origin = ctx.clustering.root_of(initiator)
        if ctx.unreachable(origin):
            return self._local_only(q, k, origin, stats)
        reached, hops, lost = ctx.walk(ctx.effective(origin), stats)
        edges = ctx.entry_hops(initiator) + hops
        pool: dict[Hashable, np.ndarray] = {}
        for root in reached:
            members = ctx.alive_members(root)
            edges += max(len(members) - 1, 0)
            pool.update((m, ctx.features[m]) for m in members)
        ctx.charge(stats, ctx.dim + 1, edges)
        ctx.charge(stats, k, edges)
        neighbors = brute_force_knn(pool, ctx.metric, q, k)
        return KnnResult(
            neighbors, stats.total_values, len(pool), ctx.coverage(lost), stats.total_drops
        )

    def _local_only(
        self, q: np.ndarray, k: int, origin: Hashable, stats: MessageStats
    ) -> KnnResult:
        """Rank only the initiator's own surviving cluster members."""
        ctx = self.context
        alive, coverage = ctx.local_only(origin, stats)
        ranked = brute_force_knn({m: ctx.features[m] for m in alive}, ctx.metric, q, k)
        return KnnResult(ranked, stats.total_values, len(alive), coverage, stats.total_drops)


def brute_force_knn(
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    q: np.ndarray,
    k: int,
) -> list[tuple[Hashable, float]]:
    """Ground-truth k-NN for correctness checks."""
    distances = [
        (node, metric.distance(q, feature)) for node, feature in features.items()
    ]
    distances.sort(key=lambda kv: (kv[1], repr(kv[0])))
    return distances[:k]
