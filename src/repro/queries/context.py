"""One degraded-mode core shared by the query engines and the planner.

Every query plan of §7.2–7.3 runs the same pipeline: route from the
initiator to its cluster root, fan out over the leader backbone, prune
with cluster balls, and answer inside the clusters it reaches.  A
:class:`QueryContext` owns what every plan needs to know about the serving
structures and about crashes, so each rule below is written once:

- the float64 feature dict and its dimension;
- the dead set and the re-elected roots (``root_replacements``): which
  backbone node stands for a root (:meth:`~QueryContext.effective`), which
  original root a replacement stands for (:meth:`~QueryContext.original`),
  and which roots are unreachable — dead without a replacement;
- the conservative routing ball of a re-elected root: the dead root's
  ball enlarged by the feature distance between the two, sound by the
  triangle inequality (:meth:`~QueryContext.routing_ball`);
- every cluster root's routing ball, stacked once, and the one row of
  distances from a query to all of them (:meth:`~QueryContext.ball_distances`)
  that the planner's estimates and the range, k-NN and path plans read;
- the backbone's DFS preorder (:meth:`~QueryContext.preorder`), from
  which every edge direction's far side is read
  (:meth:`~QueryContext.far_side`);
- the backbone fan-out (:meth:`~QueryContext.walk`): a copy sent toward a
  dead relay is one ``dead_relay`` drop and loses every root behind that
  relay; backbone nodes outside the start's tree component (a repair that
  split the backbone) are lost too; a subtree pruned by a caller's
  summary ball is covered, not lost, and records no drop;
- coverage — the fraction of surviving nodes whose cluster is not lost;
- the local-only answer for an initiator whose root died unreplaced;
- message charges and drops, mirrored into ``queries.drops.<reason>``
  counters when a metrics registry is supplied;
- the M-tree subtree of a node, and the crash context a result-cache key
  must embed.

With ``dead`` and ``root_replacements`` empty every rule reduces to the
fault-free bookkeeping.  Every engine takes the context it reads as its
first argument (``RangeQueryEngine(context)``, ``KnnQueryEngine(context)``,
``PathQueryEngine(context, graph)``), and there is one way to share a
context: pass the same object, as the planner does with its three
engines.  Engines on one context share its crash bookkeeping, its
metrics registry and its walk cache.  The backbone is read as built: its
split test, its preorder and the unpruned fan-out of the most recent
starts are cached, so a backbone repaired later needs a new context.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

import networkx as nx
import numpy as np

from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.sim.messages import CATEGORY_QUERY
from repro.sim.stats import MessageStats

#: Drop reasons recorded by the degraded query paths.
DROP_DEAD_RELAY = "dead_relay"
DROP_DEAD_ROOT = "dead_root"
DROP_DEAD_ENDPOINT = "dead_endpoint"
DROP_NO_SURVIVORS = "no_survivors"

#: Unpruned walks a context keeps, least recently used evicted first.  On
#: the 1,027-cluster query_terrain deployment a walk is a ~36 KB dict and
#: took 0.94 ms against a ~4 ms median query, and a query asks for ~0.8
#: unpruned walks.  Replaying 2,000 balanced seed-3 queries (8 passes of
#: 250) missed 300 times unbounded, 301 times at 256 walks, 406 at 128 and
#: 565 at 64; clearing the whole cache at 128 instead missed 574 times.
WALK_CACHE_SIZE = 128

#: A backbone fan-out: ``(reached, hops, lost)`` — the hop distance from
#: the start of every root the query reaches (in visit order), the backbone
#: hops it traverses, and the roots it cannot reach.
Walk = tuple[dict[Hashable, int], int, set[Hashable]]

#: The backbone tree in DFS preorder: its components, each a node list, and
#: for every node ``(component, entry, exit)``, so that the node's subtree
#: is ``components[component][entry:exit]``.
Preorder = tuple[list[list[Hashable]], dict[Hashable, tuple[int, int, int]]]


class QueryContext:
    """Serving structures plus the crash context every query plan reads.

    *backbone* may be ``None`` for a context only a path engine reads;
    the range and k-NN engines walk it and refuse a context without one.
    ``dead`` is the crashed node set and ``root_replacements`` maps a
    dead root to its re-elected representative; both default empty.
    """

    def __init__(
        self,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        backbone: BackboneTree | None = None,
        *,
        dead: "set[Hashable] | frozenset[Hashable] | None" = None,
        root_replacements: Mapping[Hashable, Hashable] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.clustering = clustering
        self.features = {k: np.asarray(v, dtype=np.float64) for k, v in features.items()}
        self.metric = metric
        self.mtree = mtree
        self.backbone = backbone
        self.metrics = metrics
        self.dim = int(next(iter(self.features.values())).shape[0])
        self.dead = frozenset(dead) if dead else frozenset()
        self.replacements = dict(root_replacements) if root_replacements else {}
        self.replaced_by = {repl: orig for orig, repl in self.replacements.items()}
        self.degraded = bool(self.dead or self.replacements)
        self._split = backbone is not None and not nx.is_connected(backbone.tree)
        # Every cluster root's routing ball, in clustering.roots order.
        balls = [self.routing_ball(self.effective(root)) for root in clustering.roots]
        self.ball_centers = np.array([c for c, _ in balls], dtype=np.float64).reshape(-1, self.dim)
        self.ball_radii = [radius for _, radius in balls]
        self._ball_slot = {root: i for i, root in enumerate(clustering.roots)}
        # start -> (reached, hops, lost, dead relays) of the unpruned walk,
        # least recently used first.
        self._reach: OrderedDict[
            Hashable, tuple[dict[Hashable, int], int, set[Hashable], int]
        ] = OrderedDict()
        self._preorder: Preorder | None = None

    # ------------------------------------------------------------------
    # roots
    def effective(self, root: Hashable) -> Hashable:
        """The backbone node standing for cluster root *root*."""
        return self.replacements.get(root, root)

    def original(self, node: Hashable) -> Hashable:
        """The cluster root a backbone node stands for (itself unless re-elected)."""
        return self.replaced_by.get(node, node)

    def unreachable(self, root: Hashable) -> bool:
        """True when *root* is dead with no re-elected replacement."""
        return root in self.dead and root not in self.replacements

    def entry_hops(self, node: Hashable) -> int:
        """Cluster-tree hops from *node* to its cluster root."""
        return len(self.clustering.path_to_root(node)) - 1

    def routing_ball(self, node: Hashable) -> tuple[np.ndarray, float]:
        """Pruning ball of backbone node *node*, conservative when re-elected.

        A replacement's own M-tree entry only covers its subtree, so its
        cluster ball is the dead root's ball enlarged by the feature
        distance between the two.
        """
        center = self.mtree.routing_feature[node]
        orig = self.replaced_by.get(node)
        if orig is None:
            return center, self.mtree.covering_radius[node]
        slack = self.metric.distance(center, self.mtree.routing_feature[orig])
        return center, slack + self.mtree.covering_radius[orig]

    def ball_distances(self, q: np.ndarray) -> list[float]:
        """Distance from *q* to every cluster root's ball centre, as floats.

        Entry ``i`` equals ``metric.distance(q, routing_ball(effective(r))[0])``
        for ``r = clustering.roots[i]`` bit for bit (one
        :meth:`~repro.features.metrics.Metric.distance_row`); that ball's
        radius is ``ball_radii[i]``.  A backbone node reads the entry of
        the root it stands for (:meth:`ball_slot`).
        """
        return self.metric.distance_row(q, self.ball_centers).tolist()

    def ball_slot(self, node: Hashable) -> int:
        """Index into :meth:`ball_distances` of backbone node *node*'s cluster."""
        return self._ball_slot[self.original(node)]

    def alive_members(self, node: Hashable):
        """Surviving members of the cluster backbone node *node* stands for."""
        members = self.clustering.members(self.original(node))
        if self.dead:
            return [m for m in members if m not in self.dead]
        return members

    def alive_total(self) -> int:
        """Number of surviving clustered nodes."""
        return sum(1 for n in self.clustering.assignment if n not in self.dead)

    # ------------------------------------------------------------------
    # the backbone
    def preorder(self) -> Preorder:
        """The backbone's components in DFS preorder (see :data:`Preorder`).

        Each component starts at its first node in ``tree.nodes`` order and
        visits neighbours in ``tree.neighbors`` order.  Built on first use
        and cached, like the unpruned walks.
        """
        if self._preorder is None:
            tree = self.backbone.tree
            components: list[list[Hashable]] = []
            spans: dict[Hashable, tuple[int, int, int]] = {}
            for start in tree.nodes:
                if start in spans:
                    continue
                index, order, entry = len(components), [start], {start: 0}
                stack = [(start, iter(tree.neighbors(start)))]
                while stack:
                    node, neighbours = stack[-1]
                    child = next((u for u in neighbours if u not in entry), None)
                    if child is None:
                        stack.pop()
                        spans[node] = (index, entry[node], len(order))
                    else:
                        entry[child] = len(order)
                        order.append(child)
                        stack.append((child, iter(tree.neighbors(child))))
                components.append(order)
            self._preorder = (components, spans)
        return self._preorder

    def far_side(self, src: Hashable, dst: Hashable) -> set[Hashable]:
        """Backbone nodes reachable from *dst* without crossing edge (src, dst).

        Read off the preorder: when *src* is *dst*'s parent this is *dst*'s
        subtree interval, otherwise (*src* is a child of *dst*) it is the
        component minus *src*'s interval.  (src, dst) must be a backbone
        edge.
        """
        components, spans = self.preorder()
        index, src_in, src_out = spans[src]
        _, dst_in, dst_out = spans[dst]
        order = components[index]
        if src_in < dst_in:
            return set(order[dst_in:dst_out])
        return set(order[:src_in]) | set(order[src_out:])

    def walk(
        self,
        start: Hashable,
        stats: MessageStats | None = None,
        prune: Callable[[Hashable, Hashable], bool] | None = None,
    ) -> Walk:
        """Fan a query out over the backbone from *start* (see :data:`Walk`).

        ``prune(src, dst)`` returning True skips the far side of backbone
        edge (src, dst) — covered by the caller's summary, so not lost.
        Dead relays are recorded as drops into *stats* when given; charging
        the traversed hops is left to the caller.  The unpruned walk
        depends on *start* alone, and the :data:`WALK_CACHE_SIZE` most
        recently used are cached.  Its ``reached`` map is the hop map from
        *start*, which on the acyclic backbone equals the hop sums along
        ``nx.shortest_path``.  Callers must not mutate it.
        """
        cached = self._reach.get(start) if prune is None else None
        if cached is not None:
            self._reach.move_to_end(start)
        else:
            tree = self.backbone.tree
            reached, hops, lost, relays = {start: 0}, 0, set(), 0
            if self._split:
                lost.update(set(tree) - nx.node_connected_component(tree, start))
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbor in tree.neighbors(current):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    if neighbor in self.dead:
                        relays += 1
                        lost.update(self.far_side(current, neighbor))
                        continue
                    if prune is not None and prune(current, neighbor):
                        continue
                    edge = self.backbone.edge_hops(current, neighbor)
                    reached[neighbor] = reached[current] + edge
                    hops += edge
                    stack.append(neighbor)
            cached = (reached, hops, lost, relays)
            if prune is None:
                self._reach[start] = cached
                if len(self._reach) > WALK_CACHE_SIZE:
                    self._reach.popitem(last=False)
        reached, hops, lost, relays = cached
        if stats is not None:
            for _ in range(relays):
                self.drop(stats, DROP_DEAD_RELAY)
        return reached, hops, lost

    def coverage(self, lost) -> float:
        """Fraction of surviving nodes whose cluster is not among *lost*."""
        if not lost:
            return 1.0
        alive_total = self.alive_total()
        if alive_total == 0:
            # No survivors at all: nothing was (or could be) covered.
            return 0.0
        uncovered = sum(len(self.alive_members(node)) for node in lost)
        return 1.0 - uncovered / alive_total

    def local_only(self, origin: Hashable, stats: MessageStats) -> tuple[list[Hashable], float]:
        """Answer set and coverage when *origin*, the initiator's root, is unreachable.

        The initiator cannot enter the backbone, so the query floods the
        surviving members of its own cluster: a ``dead_root`` drop, then
        ``dim+1`` values down and 1 back per cluster-tree edge, and a
        ``no_survivors`` drop when nobody is left.  Returns those members
        and their share of all survivors (0.0 when nobody survives).
        """
        self.drop(stats, DROP_DEAD_ROOT)
        alive = self.alive_members(origin)
        edges = max(len(alive) - 1, 0)
        self.charge(stats, self.dim + 1, edges)
        self.charge(stats, 1, edges)
        if not alive:
            self.drop(stats, DROP_NO_SURVIVORS)
        alive_total = self.alive_total()
        return alive, len(alive) / alive_total if alive_total else 0.0

    # ------------------------------------------------------------------
    # accounting
    @staticmethod
    def charge(stats: MessageStats, values: int, hops: int) -> None:
        """Charge *values* query values over *hops* hops (nothing for 0)."""
        if hops > 0:
            stats.charge("query", CATEGORY_QUERY, values, hops)

    def drop(self, stats: MessageStats, reason: str) -> None:
        """Record one degraded-path drop in *stats* and the metrics registry."""
        stats.drop("query", reason)
        if self.metrics is not None:
            self.metrics.counter(f"queries.drops.{reason}").inc()

    # ------------------------------------------------------------------
    def subtree(self, node: Hashable) -> set[Hashable]:
        """*node* and every M-tree descendant of it."""
        out: set[Hashable] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            out.add(current)
            stack.extend(self.mtree.children[current])
        return out

    def cache_context(self) -> "dict[str, Any] | None":
        """The crash context a result-cache key embeds (None fault-free)."""
        if not self.degraded:
            return None
        return {
            "dead": sorted(self.dead, key=repr),
            "root_replacements": sorted(self.replacements.items(), key=repr),
        }
