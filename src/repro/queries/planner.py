"""Cost-model query planner over the clustered serving stack.

The query layer has three ways to answer any spatial query, with very
different message bills:

- **mtree** — the paper's clustered plan: route to the initiator's root,
  fan out over the backbone with directional-summary pruning, apply
  δ-compactness at each visited root, and descend the distributed M-tree
  only inside boundary clusters (``query`` of
  :mod:`~repro.queries.range_query`, :mod:`~repro.queries.knn` and
  :mod:`~repro.queries.path_query`);
- **backbone** — the same engines without the index (their
  ``backbone_query``): visit every reachable cluster root over the
  backbone tree, classify each cluster with its root ball alone, and
  flood the cluster tree of every boundary cluster (no M-tree descent).
  Cheap when clusters are few and tight, expensive when many clusters
  straddle the query ball;
- **flood** — local flooding: TAG-style distribute-and-collect over a
  network-wide overlay tree for range, an overlay flood for k-NN (both a
  few lines here), and the path engine's safe-region flood
  (:meth:`~repro.queries.path_query.PathQueryEngine.flood_query`).  Cost
  is independent of selectivity — the right plan only for unselective
  queries on fragmented clusterings.

:class:`QueryPlanner` estimates each plan's message cost per query from
topology and clustering statistics — cluster count and sizes, the
backbone hops a fan-out traverses, covering radii versus the query radius, the
exact pruned backbone fan-out
(:meth:`~repro.queries.range_query.RangeQueryEngine.fanout_preview`) —
and executes the argmin.  All three backends return the **same answer**
(they are exact under the same triangle-inequality machinery; the planner
additionally canonicalizes path-query routes), so plan choice only moves
cost, never results.  ``explain`` output reports every backend's estimate
next to the chosen plan's actual cost, making the model auditable query
by query.

Results are memoized through :class:`~repro.queries.result_cache.QueryResultCache`
(content-addressed keys via :meth:`~repro.queries.result_cache.QueryResultCache.key`) and
invalidated by the maintenance layer's structure generation — see the
cache module docstring for the staleness contract.  Planning, execution,
and cache traffic emit ``queries.*`` trace events through the planner's
one event sink (``emit``), consumed by ``repro trace --queries``, and
``queries.*`` counters in the metrics registry.

The planner builds one :class:`~repro.queries.context.QueryContext` and
passes that object to its three engines, so cost model and execution
read the same crash bookkeeping.  It serves the fault-free path by
default.  Pass ``dead`` / ``root_replacements`` and re-elected roots
prune with conservative replacement balls, backbone hop terms count
only edges a query can actually traverse (fan-out stops at dead relays
and at the edge of a split backbone, and the far sides contribute no
descent cost), per-cluster sizes count surviving members, and clusters
whose representative died unreplaced are costed as unreachable.  The
flood backend is unavailable degraded — its overlay tree routes through
dead nodes — so it is never chosen and cannot be forced.  Cache keys
embed the degraded context
(:meth:`~repro.queries.result_cache.QueryResultCache.key`), so a
fault-free cached answer is never served for a degraded query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least, require_non_negative
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.queries.context import QueryContext
from repro.queries.knn import KnnQueryEngine, KnnResult, brute_force_knn
from repro.queries.path_query import PathQueryEngine
from repro.queries.range_query import RangeQueryEngine, RangeQueryResult
from repro.queries.result_cache import QueryResultCache
from repro.queries.tag import TagEngine

#: The plan backends, in tie-break preference order (ties go to the
#: earliest entry — the clustered plan, whose constants are best-measured).
PLAN_BACKENDS = ("mtree", "backbone", "flood")

#: Fraction of a boundary cluster's tree edges the M-tree descent is
#: modeled to visit (the descent prunes subtrees; the backbone plan's
#: cluster flood visits every edge).  Calibrated on the seeded scenarios
#: in tests/test_planner.py; explain output exposes the per-query error.
DESCENT_FRACTION = 0.5

#: Same role for the path query's boundary-cluster M-tree drill.
DRILL_FRACTION = 0.5

#: Per-cluster node budget the k-NN best-first search is modeled to
#: confirm inside each visited cluster (it stops at the k-th bound).
KNN_VISIT_PER_CLUSTER = 2


@dataclass(frozen=True)
class QueryPlan:
    """A chosen backend plus the full per-backend estimate table."""

    op: str  # "range" | "knn" | "path"
    backend: str  # the chosen entry of PLAN_BACKENDS
    estimates: Mapping[str, float]  # backend -> estimated value-messages
    reason: str  # "min-cost" | "forced"

    def explain_text(self) -> str:
        """One-line rendering of the estimate table and the choice."""
        ranked = sorted(self.estimates.items(), key=lambda kv: kv[1])
        table = ", ".join(f"{name} est {cost:.0f}" for name, cost in ranked)
        return f"plan {self.op}: {self.backend} ({self.reason}) | {table}"


@dataclass
class PlannedResult:
    """One executed (or cache-served) query with its plan and cost."""

    plan: QueryPlan
    result: Any  # RangeQueryResult | KnnResult | PathQueryResult
    messages: int  # actual network cost of THIS response (0 on cache hits)
    estimated: float  # the chosen backend's estimate
    cached: bool = False

    def explain_text(self) -> str:
        """Estimate-vs-actual rendering for the executed plan."""
        if self.cached:
            return f"{self.plan.explain_text()} | served from cache (0 messages)"
        ratio = self.messages / self.estimated if self.estimated else math.inf
        return (
            f"{self.plan.explain_text()} | actual {self.messages} "
            f"(actual/est {ratio:.2f}x)"
        )


def canonical_answer(op: str, result: Any) -> Any:
    """The backend-independent answer of a query result, for equivalence.

    Range answers are frozen match sets, k-NN answers the ordered
    neighbor list, path answers the route (or None).  Cost fields are
    deliberately excluded — they are exactly what plan choice changes.
    """
    if op == "range":
        return frozenset(result.matches)
    if op == "knn":
        return tuple((node, round(dist, 12)) for node, dist in result.neighbors)
    if op == "path":
        return None if result.path is None else tuple(result.path)
    raise ValueError(f"unknown op {op!r}")


@dataclass
class _Stats:
    """Topology/clustering statistics the cost model reads."""

    n: int
    dim: int
    num_clusters: int
    mean_degree: float
    sizes: dict[Hashable, int] = field(default_factory=dict)


class QueryPlanner:
    """Plans and executes range/k-NN/path queries (see module docstring).

    Parameters
    ----------
    graph, clustering, features, metric, mtree, backbone:
        The serving structures every engine shares.
    metrics:
        Optional registry for ``queries.*`` counters.
    emit:
        Optional event sink ``emit(type, **data)`` for the ``queries.*``
        trace events; the serving layer passes its context emitter so
        events share the service clock.
    cache:
        Optional :class:`~repro.queries.result_cache.QueryResultCache`.
        Auto-planned answers are memoized in it; forced-backend runs
        bypass it (their cost is the experiment).
    generation:
        Zero-argument callable returning the current maintenance
        structure generation (e.g. ``lambda: session.generation``); the
        cache sweeps stale entries whenever it advances.  ``None`` pins
        generation 0 (static snapshots).
    dead, root_replacements:
        The degraded-topology context (crashed node set; dead root ->
        re-elected representative), passed on to the planner's
        :class:`~repro.queries.context.QueryContext`.  Both default empty
        (fault-free).
    """

    def __init__(
        self,
        graph: nx.Graph,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        backbone: BackboneTree,
        *,
        metrics: MetricsRegistry | None = None,
        emit: Callable[..., None] | None = None,
        cache: QueryResultCache | None = None,
        generation: Callable[[], int] | None = None,
        dead: "set[Hashable] | frozenset[Hashable] | None" = None,
        root_replacements: Mapping[Hashable, Hashable] | None = None,
    ):
        self._metrics = metrics
        self._emit_fn = emit
        self._cache = cache
        self._generation = generation

        # One context: the three engines read the same crash bookkeeping.
        self.context = ctx = QueryContext(
            clustering, features, metric, mtree, backbone,
            dead=dead, root_replacements=root_replacements, metrics=metrics,
        )
        self._range = RangeQueryEngine(ctx)
        self._knn = KnnQueryEngine(ctx)
        self._path = PathQueryEngine(ctx, graph)
        # One overlay for the flood backend; TAG's per-query cost does not
        # depend on where the overlay is rooted (it is always n-1 edges),
        # so a fixed deterministic base station keeps plans comparable.
        base = min(graph.nodes, key=repr)
        self._tag = TagEngine(graph, ctx.features, metric, base_station=base)

        # Per-cluster sizes over *surviving* members: the degraded cost
        # model's discount, and exactly the fault-free sizes when nothing
        # is dead.
        n = graph.number_of_nodes()
        self.stats = _Stats(
            n=n,
            dim=ctx.dim,
            num_clusters=clustering.num_clusters,
            mean_degree=(2.0 * graph.number_of_edges() / n) if n else 0.0,
            sizes={root: len(ctx.alive_members(root)) for root in clustering.roots},
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_range(self, q: np.ndarray, radius: float, initiator: Hashable) -> QueryPlan:
        """Estimate every backend for a range query and pick the cheapest."""
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        ctx = self.context
        per_edge = self.stats.dim + 2  # (dim+1) down + 1 aggregate up
        origin = ctx.clustering.root_of(initiator)
        if ctx.unreachable(origin):
            # Unrepaired dead representative: every clustered backend
            # decays to flooding the initiator's surviving cluster.
            local = per_edge * max(self.stats.sizes.get(origin, 0) - 1, 0)
            return self._choose("range", {
                "mtree": float(local),
                "backbone": float(local),
                "flood": self._flood_cost(self._tag.per_query_cost()),
            })
        # Clusters neither pruned nor included by their root ball, if consultable.
        boundary = {
            root
            for root, d, r_root in zip(ctx.clustering.roots, ctx.ball_distances(q), ctx.ball_radii)
            if not (d > radius + r_root or d <= radius - r_root or ctx.unreachable(root))
        }
        reached, hops_reach, _ = ctx.walk(ctx.effective(origin))
        boundary_all = sum(
            max(self.stats.sizes[r] - 1, 0)
            for r in boundary
            if ctx.effective(r) in reached
        )
        entry_hops, visited, fanout_hops = self._range.fanout_preview(q, radius, initiator)
        # The preview walks the (possibly rerouted) backbone, so degraded
        # it surfaces replacement ids; sizes and the boundary set are keyed
        # by the original roots.
        boundary_visited = sum(
            max(self.stats.sizes.get(ctx.original(r), 0) - 1, 0)
            for r in visited
            if ctx.original(r) in boundary
        )
        estimates = {
            "mtree": per_edge * (entry_hops + fanout_hops)
            + per_edge * boundary_visited * DESCENT_FRACTION,
            "backbone": per_edge * (entry_hops + hops_reach) + per_edge * boundary_all,
            "flood": self._flood_cost(self._tag.per_query_cost()),
        }
        return self._choose("range", estimates)

    def plan_knn(self, q: np.ndarray, k: int, initiator: Hashable) -> QueryPlan:
        """Estimate every backend for a k-NN query and pick the cheapest."""
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        ctx = self.context
        dim = self.stats.dim
        origin = ctx.clustering.root_of(initiator)
        if ctx.unreachable(origin):
            local = (dim + 2) * max(self.stats.sizes.get(origin, 0) - 1, 0)
            return self._choose("knn", {
                "mtree": float(local),
                "backbone": float(local),
                "flood": self._flood_cost((dim + 1 + k) * self._tag.tree_edges),
            })
        entry = ctx.entry_hops(initiator)
        routes, hops_reach, _ = ctx.walk(ctx.effective(origin))
        # Only clusters the engines can consult: a live (or re-elected)
        # representative that is not severed behind a dead backbone relay.
        balls = {
            r: (d, r_root)
            for r, d, r_root in zip(ctx.clustering.roots, ctx.ball_distances(q), ctx.ball_radii)
            if ctx.effective(r) in routes
        }
        # Optimistic k-th-distance guess from the closest root ball: every
        # root whose optimistic bound beats it is modeled as visited.
        best = min(balls, key=lambda r: (balls[r][0], repr(r)))
        est_kth = balls[best][0] + balls[best][1]
        visited = [r for r, (d, r_root) in balls.items() if max(0.0, d - r_root) <= est_kth]
        per_edge = dim + 2
        mtree_cost = per_edge * entry + sum(
            per_edge * routes[ctx.effective(r)]
            + per_edge * min(max(self.stats.sizes[r] - 1, 0), KNN_VISIT_PER_CLUSTER * k)
            for r in visited
        )
        # Cluster-tree edges the backbone scan floods (surviving members
        # of consultable clusters only).
        scan_edges = sum(max(self.stats.sizes[r] - 1, 0) for r in balls)
        estimates = {
            "mtree": float(mtree_cost),
            "backbone": (dim + 1 + k) * (entry + hops_reach + scan_edges),
            "flood": self._flood_cost((dim + 1 + k) * self._tag.tree_edges),
        }
        return self._choose("knn", estimates)

    def plan_path(
        self, source: Hashable, destination: Hashable, danger: np.ndarray, gamma: float
    ) -> QueryPlan:
        """Estimate every backend for a safe-path query and pick the cheapest."""
        require_non_negative(gamma, "gamma")
        danger = np.asarray(danger, dtype=np.float64)
        ctx = self.context
        qv = self.stats.dim + 1
        if source in ctx.dead or destination in ctx.dead:
            # Dead endpoint: every engine answers "no path" immediately.
            return self._choose("path", {
                "mtree": 0.0, "backbone": 0.0, "flood": self._flood_cost(0.0),
            })
        entry = ctx.entry_hops(source)
        safe_nodes = 0.0
        boundary_edges = 0
        classified = 0
        for root, d, radius in zip(ctx.clustering.roots, ctx.ball_distances(danger), ctx.ball_radii):
            if root in ctx.dead:
                # The path engine cannot classify this cluster (its
                # representative died); no cost, no safe members.
                continue
            classified += 1
            size = self.stats.sizes[root]
            if d - radius >= gamma:
                safe_nodes += size
            elif d + radius >= gamma:  # boundary: some members may be safe
                safe_nodes += 0.5 * size
                boundary_edges += max(size - 1, 0)
        classify = qv * (entry + classified)
        estimates = {
            "mtree": classify + qv * boundary_edges * DRILL_FRACTION,
            "backbone": classify + qv * boundary_edges,
            "flood": self._flood_cost(2.0 * safe_nodes * self.stats.mean_degree),
        }
        return self._choose("path", estimates)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def range(
        self, q: np.ndarray, radius: float, initiator: Hashable, *, backend: str | None = None
    ) -> PlannedResult:
        """Answer a range query through the chosen (or forced) plan."""
        q = np.asarray(q, dtype=np.float64)
        runners = {
            "mtree": lambda: self._range.query(q, radius, initiator),
            "backbone": lambda: self._range.backbone_query(q, radius, initiator),
            "flood": lambda: self._tag_range(q, radius),
        }
        params = {"q": q, "radius": float(radius), "initiator": initiator}
        return self._execute(
            "range", params, lambda: self.plan_range(q, radius, initiator), runners, backend
        )

    def knn(
        self, q: np.ndarray, k: int, initiator: Hashable, *, backend: str | None = None
    ) -> PlannedResult:
        """Answer a k-NN query through the chosen (or forced) plan."""
        q = np.asarray(q, dtype=np.float64)
        runners = {
            "mtree": lambda: self._knn.query(q, k, initiator),
            "backbone": lambda: self._knn.backbone_query(q, k, initiator),
            "flood": lambda: self._knn_flood(q, k),
        }
        params = {"q": q, "k": int(k), "initiator": initiator}
        return self._execute(
            "knn", params, lambda: self.plan_knn(q, k, initiator), runners, backend
        )

    def path(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
        *,
        backend: str | None = None,
    ) -> PlannedResult:
        """Answer a safe-path query through the chosen (or forced) plan."""
        danger = np.asarray(danger, dtype=np.float64)
        args = (source, destination, danger, gamma)
        runners = {
            "mtree": lambda: self._path.query(*args),
            "backbone": lambda: self._path.backbone_query(*args),
            "flood": lambda: self._path.flood_query(*args),
        }
        params = {
            "source": source,
            "destination": destination,
            "danger": danger,
            "gamma": float(gamma),
        }
        return self._execute(
            "path", params, lambda: self.plan_path(*args), runners, backend
        )

    # ------------------------------------------------------------------
    # flood backends (the engines run the mtree and backbone plans)
    # ------------------------------------------------------------------
    def _tag_range(self, q: np.ndarray, radius: float) -> RangeQueryResult:
        """Range flood: TAG distribute-and-collect; cost is selectivity-free."""
        out = self._tag.query(q, radius)
        return RangeQueryResult(
            out.matches, out.messages, 0, 0, self.stats.num_clusters
        )

    def _knn_flood(self, q: np.ndarray, k: int) -> KnnResult:
        """k-NN flood: every overlay edge carries the query down and k-best back."""
        messages = (self.stats.dim + 1 + k) * self._tag.tree_edges
        neighbors = brute_force_knn(self.context.features, self.context.metric, q, k)
        return KnnResult(neighbors, messages, self.stats.n)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _execute(
        self,
        op: str,
        params: Mapping[str, Any],
        plan_fn: Callable[[], QueryPlan],
        runners: Mapping[str, Callable[[], Any]],
        backend: str | None,
    ) -> PlannedResult:
        if backend is not None and backend not in PLAN_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {PLAN_BACKENDS}")
        if backend == "flood" and self.context.degraded:
            raise ValueError(
                "flood backend unavailable under a degraded topology: its "
                "overlay tree routes through dead nodes"
            )
        key = None
        if backend is None and self._cache is not None:
            if self._generation is not None:
                self._cache.observe_generation(self._generation())
            try:
                key = self._cache.key(op, params, context=self.context.cache_context())
            except TypeError:
                key = None  # un-canonicalizable parameter: skip the cache
            if key is not None:
                hit, value = self._cache.get(key)
                if hit:
                    plan, result, estimated = value
                    self._count(f"queries.cache_served.{op}")
                    self._emit(
                        "queries.cache_hit", op=op, backend=plan.backend,
                        generation=self._cache.generation,
                    )
                    return PlannedResult(plan, result, 0, estimated, cached=True)
                self._emit("queries.cache_miss", op=op, generation=self._cache.generation)
        plan = plan_fn()
        if backend is not None:
            plan = QueryPlan(op, backend, plan.estimates, "forced")
        self._count(f"queries.plans.{plan.backend}")
        self._count(f"queries.executed.{op}")
        self._emit(
            "queries.plan", op=op, backend=plan.backend, reason=plan.reason,
            estimates={k: round(v, 1) for k, v in plan.estimates.items()},
        )
        result = runners[plan.backend]()
        estimated = plan.estimates[plan.backend]
        self._emit(
            "queries.execute", op=op, backend=plan.backend,
            estimated=round(estimated, 1), actual=result.messages,
        )
        if key is not None:
            self._cache.put(key, (plan, result, estimated))
        return PlannedResult(plan, result, result.messages, estimated)

    def _choose(self, op: str, estimates: dict[str, float]) -> QueryPlan:
        backend = min(
            PLAN_BACKENDS, key=lambda name: (estimates[name], PLAN_BACKENDS.index(name))
        )
        return QueryPlan(op, backend, estimates, "min-cost")

    def _flood_cost(self, cost: float) -> float:
        # Flooding routes through every node; with dead/replaced nodes
        # the degraded engines refuse it, so an infinite estimate keeps
        # it out of the argmin (and _execute rejects forcing it).
        return math.inf if self.context.degraded else float(cost)

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    def _emit(self, type_: str, **data: Any) -> None:
        if self._emit_fn is not None:
            self._emit_fn(type_, **data)
