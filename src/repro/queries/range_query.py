"""Range queries over the clustered network (paper §7.2).

A range query ``(q, r)`` retrieves every node whose feature is within
distance *r* of the query feature *q*.  The clustered algorithm:

1. The initiator routes the query to its cluster root over the cluster
   tree.
2. The root fans the query out over the backbone tree.  The M-tree's top
   level extends over the backbone: at build time every backbone edge
   direction stores a covering ball ``(F, R)`` for *all members of all
   clusters* on its far side, so distribution itself prunes — an entire
   backbone subtree is skipped when ``d(q, F) > r + R`` (triangle
   inequality; the paper's index is "a distributed M-tree … physically
   embedded on the communication graph", and this is its root level).
3. Each visited root applies **δ-compactness pruning**: with ``R_root``
   the root's covering radius (≤ δ/2 for ELink clusterings, by the δ/2
   join rule), the whole cluster is *excluded* when ``d(q, F_root) > r +
   R_root`` and *included* when ``d(q, F_root) ≤ r - R_root`` — both pure
   triangle inequality, no further messages.
4. Only boundary clusters descend the M-tree: a parent forwards the query
   to child *j* unless ``|d(q, F_i^R) - d(F_i^R, F_j^R)| > r + R_j``
   (prune) and stops descending below *j* when
   ``d(q, F_i^R) + d(F_i^R, F_j^R) ≤ r - R_j`` (include whole subtree).
5. Results aggregate back along the traversed edges.

The step-2 summaries are built once per engine.  In the backbone's DFS
preorder (:meth:`~repro.queries.context.QueryContext.preorder`) every far
side is one subtree interval or a component minus one, so each backbone
node ``v`` needs one exact distance row ``d(F_v, F_r) + R_r`` over the
cluster balls of its component (:meth:`~repro.features.metrics.Metric.distance_row`),
and each of its directions takes a ``max`` over one or two slices of it:
C rows in O(C) memory, bit-identical to one scalar ``distance`` per
(direction, cluster) pair.  1-d rows are one array expression; k-d rows
loop over ``distance``.

Cost accounting: every traversed cluster-tree edge and every backbone-path
hop is charged ``dim+1`` values for the query going down and 1 value for
the aggregate coming back — the same convention the TAG baseline is
charged under, so the comparison in Figs 14–15 is apples-to-apples.  The
summary build itself is not charged (see :class:`RangeQueryEngine`).

The backbone plan (:meth:`RangeQueryEngine.backbone_query`) is the same
pipeline without the index: step 2 without summary pruning, and step 4
floods each boundary cluster's tree instead of descending the M-tree.
Both plans fan out through one
:meth:`~repro.queries.context.QueryContext.walk`, which also carries the
degraded-mode rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro._validation import require_non_negative
from repro.features.metrics import Metric
from repro.queries.context import QueryContext
from repro.sim.stats import MessageStats


@dataclass
class RangeQueryResult:
    """Result set plus the communication spent to obtain it."""

    matches: set[Hashable]
    messages: int
    clusters_pruned: int  # clusters answered by δ-compactness alone
    clusters_included: int  # clusters fully included without descent
    clusters_descended: int  # clusters that needed the M-tree
    #: Fraction of surviving nodes whose cluster the query could consult
    #: (1.0 unless crashes severed parts of the backbone).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead relays/roots);
    #: per-reason detail is mirrored into the context's metrics registry.
    drops: int = 0


class RangeQueryEngine:
    """Executes range queries over one :class:`~repro.queries.context.QueryContext`.

    Two plans share one fan-out: :meth:`query` (the paper's, with
    directional-summary pruning and M-tree descent) and
    :meth:`backbone_query` (the same walk without the index).  The
    context must carry a backbone (``ValueError`` otherwise); its
    directional summaries are built here, once, and are not charged.

    ``dead``, ``root_replacements`` and ``metrics`` come from the
    context.  After fail-stop crashes (and a backbone repaired with
    :meth:`~repro.index.backbone.BackboneTree.reroute_around`) both plans
    return **partial results with a coverage fraction** instead of
    crashing, under the context's rules: dead relays and a split backbone
    cut off their far-side clusters, dead nodes are filtered from match
    sets, a query whose own representative died unreplaced is answered
    from the surviving cluster members alone, and a replacement prunes
    with a conservative covering ball.  A fault-free context leaves the
    fault-free path untouched.

    Every degraded-path loss is recorded in the per-query
    ``MessageStats`` under ``drops_by_reason`` (``dead_relay`` /
    ``dead_root`` / ``no_survivors``) and, when the context has a
    metrics registry, as ``queries.drops.<reason>`` counters, so a
    service-level registry and the per-query stats always agree.  Engines
    built on the same context share its crash bookkeeping and walk cache.
    """

    def __init__(self, context: QueryContext):
        if context.backbone is None:
            raise ValueError("RangeQueryEngine needs a QueryContext with a backbone")
        self.context = context
        # Directional backbone summaries: (src, dst) -> a ball centred on
        # dst's routing feature covering every cluster ball on dst's side of
        # the edge, built from dst's row as the module docstring describes.
        # The row equals the scalar distances bit for bit and max is exact,
        # so every radius equals a per-pair loop's.  Building the summaries
        # in the network would cost one (dim+1)-value message per direction;
        # nothing charges it, as build_backbone charges only its 2-value
        # leader handshake per hop.
        self._summaries: dict[tuple[Hashable, Hashable], tuple[np.ndarray, float]] = {}
        tree, routing_feature = context.backbone.tree, context.mtree.routing_feature
        all_radii = np.array(context.ball_radii, dtype=np.float64)
        components, spans = context.preorder()
        for order in components:
            if len(order) < 2:
                continue  # no backbone edge, no summary
            slots = [context.ball_slot(node) for node in order]
            centers, radii = context.ball_centers[slots], all_radii[slots]
            for dst in order:
                center = routing_feature[dst]
                row = context.metric.distance_row(center, centers) + radii
                _, dst_in, dst_out = spans[dst]
                for src in tree.neighbors(dst):
                    _, src_in, src_out = spans[src]
                    if src_in < dst_in:  # src is dst's parent
                        radius = row[dst_in:dst_out].max(initial=0.0)
                    else:
                        radius = max(
                            row[:src_in].max(initial=0.0), row[src_out:].max(initial=0.0)
                        )
                    self._summaries[(src, dst)] = (center, float(radius))

    def _pruner(self, distances: list[float], radius: float):
        """Prune a backbone edge whose far-side ball misses the query ball.

        *distances* is the query's ball row: a summary is centred on its
        far end's ball centre.  An edge without a summary (added by a
        repair after the build) is never pruned.
        """
        summaries, slot = self._summaries, self.context.ball_slot

        def prune(src: Hashable, dst: Hashable) -> bool:
            ball = summaries.get((src, dst))
            return ball is not None and distances[slot(dst)] > radius + ball[1]

        return prune

    def fanout_preview(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> tuple[int, list[Hashable], int]:
        """Dry-run the backbone fan-out without charging messages.

        Returns ``(entry_hops, visited_roots, backbone_hops)`` — the
        cluster-tree hops from *initiator* to its root, the backbone roots
        the query would reach after directional-summary pruning, and the
        total backbone hops those traversals cost.  This is the exact
        fan-out term of the query's message cost; the planner
        (:mod:`repro.queries.planner`) uses it to estimate the M-tree
        plan's cost from the same statistics the engine itself prunes
        with, leaving only the per-cluster descent cost to be modeled.
        """
        q = np.asarray(q, dtype=np.float64)
        ctx = self.context
        start = ctx.effective(ctx.clustering.root_of(initiator))
        reached, hops, _ = ctx.walk(start, prune=self._pruner(ctx.ball_distances(q), radius))
        return ctx.entry_hops(initiator), list(reached), hops

    def query(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> RangeQueryResult:
        """Run a range query from *initiator*; returns matches and cost."""
        return self._run(q, radius, initiator, indexed=True)

    def backbone_query(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> RangeQueryResult:
        """The plan without the index: same answer, different cost.

        Visits every reachable root over the backbone (no directional
        summaries), classifies each cluster with its root ball alone, and
        floods the cluster tree of every boundary cluster.
        """
        return self._run(q, radius, initiator, indexed=False)

    def _run(
        self, q: np.ndarray, radius: float, initiator: Hashable, indexed: bool
    ) -> RangeQueryResult:
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        ctx = self.context
        distance = ctx.metric.distance
        stats = MessageStats()
        query_values = ctx.dim + 1

        # 1. Initiator -> its cluster root over the cluster tree.
        origin = ctx.clustering.root_of(initiator)
        if ctx.unreachable(origin):
            alive, coverage = ctx.local_only(origin, stats)
            matches = {m for m in alive if distance(q, ctx.features[m]) <= radius}
            return RangeQueryResult(
                matches, stats.total_values, 0, 0, 1 if alive else 0, coverage,
                stats.total_drops,
            )

        # 2. Fan out over the backbone tree; the indexed plan prunes whole
        #    backbone subtrees whose covering ball cannot intersect the
        #    query ball.  Every traversed hop carries the query down and
        #    the aggregate back.
        distances, radii = ctx.ball_distances(q), ctx.ball_radii
        prune = self._pruner(distances, radius) if indexed else None
        reached, hops, lost = ctx.walk(ctx.effective(origin), stats, prune)
        hops += ctx.entry_hops(initiator)
        ctx.charge(stats, query_values, hops)
        ctx.charge(stats, 1, hops)

        # 3 + 4. Per-cluster pruning at the reached roots; boundary
        #    clusters descend the M-tree, or are flooded without it.
        matches: set[Hashable] = set()
        pruned = included = descended = 0
        for root in reached:
            slot = ctx.ball_slot(root)
            d_root, r_root = distances[slot], radii[slot]
            if d_root > radius + r_root:
                pruned += 1
                continue
            if d_root <= radius - r_root:
                included += 1
                matches.update(ctx.alive_members(root))
                continue
            descended += 1
            if indexed:
                matches.update(self._descend(q, radius, ctx.original(root), stats))
                continue
            members = ctx.alive_members(root)
            edges = max(len(members) - 1, 0)
            ctx.charge(stats, query_values, edges)  # query floods the cluster tree
            ctx.charge(stats, 1, edges)  # partial matches aggregate back
            matches.update(m for m in members if distance(q, ctx.features[m]) <= radius)

        matches.difference_update(ctx.dead)
        return RangeQueryResult(
            matches,
            stats.total_values,
            pruned,
            included,
            descended,
            ctx.coverage(lost),
            stats.total_drops,
        )

    def _descend(
        self, q: np.ndarray, radius: float, root: Hashable, stats: MessageStats
    ) -> set[Hashable]:
        """M-tree descent within one cluster; charges visited tree edges."""
        ctx = self.context
        mtree = ctx.mtree
        matches: set[Hashable] = set()
        edges = 0
        stack: list[Hashable] = [root]
        while stack:
            node = stack.pop()
            d_node = ctx.metric.distance(q, mtree.routing_feature[node])
            if d_node <= radius:
                matches.add(node)
            for child, (d_parent_child, r_child) in mtree.child_info[node].items():
                # Parent-side exclusion (no message): triangle inequality on
                # the stored child table.
                if abs(d_node - d_parent_child) > radius + r_child:
                    continue
                # Every other child costs the query down one edge and the
                # aggregate back up.
                edges += 1
                if d_node + d_parent_child <= radius - r_child:
                    # Parent-side full inclusion: the whole child subtree
                    # hits; one confirmation message still flows.
                    matches.update(ctx.subtree(child))
                else:
                    stack.append(child)
        ctx.charge(stats, ctx.dim + 1, edges)
        ctx.charge(stats, 1, edges)
        return matches


def brute_force_range(
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    q: np.ndarray,
    radius: float,
) -> set[Hashable]:
    """Ground-truth answer set, for correctness checks in tests."""
    return {
        node
        for node, feature in features.items()
        if metric.distance(q, feature) <= radius
    }
