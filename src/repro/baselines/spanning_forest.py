"""Spanning-forest clustering baseline (paper §8.3).

A greedy, low-communication distributed alternative in two phases:

1. **Forest building.**  Every node broadcasts its feature to its
   neighbours, then selects as parent the neighbour with the smallest
   feature distance *among neighbours with a smaller id* (the id order
   guarantees acyclicity).  Nodes with no smaller-id neighbour become tree
   roots.
2. **δ-partitioning.**  Each node keeps a ``height`` — an upper bound on
   the feature-path distance from itself to any leaf of its accepted
   subtree.  Leaves report ``(height=0, feature)`` up; a parent receiving
   a child report ``h = child_height + d(F_child, F_parent)`` detaches
   subtrees whenever two accepted heights could sum beyond δ, always
   cutting the tallest first (the paper's *highest_child* rule).  Every
   detached subtree becomes a new cluster rooted at the detached child.

Validity note.  The paper's parent keeps only a single ``height`` and one
``highest_child``; after a detach the surviving second-tallest subtree is
unknown to it, so pathological report orders could leave two subtrees whose
heights sum beyond δ.  Our parent keeps the *list* of accepted child
heights (local memory only — no extra communication) and detaches tallest-
first until every pairwise sum fits, which preserves the paper's greedy
behaviour while making the δ-guarantee unconditional.  This is recorded in
DESIGN.md.

The protocol runs on the simulated network, so message costs (feature
broadcasts, parent selections, height reports, detach instructions) are
measured, not estimated.  Both time and message complexity are O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro._validation import require_positive
from repro.core.delta import Clustering, clustering_from_assignment
from repro.features.metrics import Metric
from repro.geometry.topology import Topology
from repro.sim.messages import Message
from repro.sim.network import HOP_DELAY, Network
from repro.sim.node import ProtocolNode
from repro.sim.stats import MessageStats


@dataclass
class SpanningForestResult:
    """Outcome of one spanning-forest clustering run."""

    clustering: Clustering
    stats: MessageStats
    completion_time: float

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the result."""
        return self.clustering.num_clusters

    @property
    def total_messages(self) -> int:
        """Total communication charged, in the paper's value-messages."""
        return self.stats.total_values


class SpanningForestNode(ProtocolNode):
    """Per-node runtime for the two-phase spanning-forest protocol."""

    def __init__(
        self,
        node_id: Hashable,
        network: Network,
        feature: np.ndarray,
        *,
        metric: Metric,
        delta: float,
    ):
        super().__init__(node_id, network, feature)
        self.metric = metric
        self.delta = delta
        self.neighbor_features: dict[Hashable, np.ndarray] = {}
        self.parent: Hashable | None = None  # forest parent (None => root)
        self.children: set[Hashable] = set()
        self.pending_children = 0
        self.accepted_heights: dict[Hashable, float] = {}
        self.detached = False  # True => roots a new cluster after a cut
        self.reported = False
        self.done_at: float | None = None

    # ------------------------------------------------------------------
    # phase 0/1: feature exchange and parent selection
    # ------------------------------------------------------------------
    def broadcast_feature(self) -> None:
        """Phase 0: announce this node's feature to all neighbours."""
        self.broadcast("feature", payload=self.feature, values=int(self.feature.shape[0]))

    def handle_feature(self, message: Message) -> None:
        """Collect a neighbour's feature; select a parent once all arrived."""
        self.neighbor_features[message.src] = message.payload
        if len(self.neighbor_features) == self.network.degree(self.node_id):
            self._select_parent()

    def _select_parent(self) -> None:
        candidates = [
            (self.metric.distance(self.feature, feature), neighbor)
            for neighbor, feature in self.neighbor_features.items()
            if _id_less(neighbor, self.node_id)
        ]
        if candidates:
            candidates.sort(key=lambda pair: (pair[0], repr(pair[1])))
            self.parent = candidates[0][1]
            self.send(self.parent, "select")
        # All selects arrive one hop later; then nodes know their children
        # and leaves can start the height cascade.
        self.set_timer(2.0 * HOP_DELAY, self._begin_heights)

    def handle_select(self, message: Message) -> None:
        """Record a neighbour that chose this node as forest parent."""
        self.children.add(message.src)

    def _begin_heights(self) -> None:
        self.pending_children = len(self.children)
        if self.pending_children == 0:
            self._report_up(height=0.0)

    # ------------------------------------------------------------------
    # phase 2: height aggregation and detaching
    # ------------------------------------------------------------------
    def handle_height(self, message: Message) -> None:
        """Fold a child's height report in, detaching oversized subtrees."""
        child_height, child_feature = message.payload
        child = message.src
        h = child_height + self.metric.distance(child_feature, self.feature)
        self.accepted_heights[child] = h
        # Detach tallest-first until every pairwise height sum fits in δ and
        # the tallest alone fits (a cluster member must stay within δ of
        # every leaf through this node).
        while self.accepted_heights:
            tallest = max(self.accepted_heights.items(), key=lambda kv: (kv[1], repr(kv[0])))
            second = max(
                (v for k, v in self.accepted_heights.items() if k != tallest[0]),
                default=0.0,
            )
            if tallest[1] + second <= self.delta and tallest[1] <= self.delta:
                break
            self.accepted_heights.pop(tallest[0])
            self.children.discard(tallest[0])
            self.send(tallest[0], "detach")
        self.pending_children -= 1
        if self.pending_children == 0:
            height = max(self.accepted_heights.values(), default=0.0)
            self._report_up(height)

    def handle_detach(self, message: Message) -> None:
        """Become the root of a new cluster (parent cut this subtree)."""
        self.parent = None
        self.detached = True

    def _report_up(self, height: float) -> None:
        self.reported = True
        self.done_at = self.now
        if self.parent is not None:
            self.send(
                self.parent,
                "height",
                payload=(height, self.feature),
                values=int(self.feature.shape[0]) + 1,
            )


def run_spanning_forest(
    topology: Topology,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    delta: float,
    *,
    network: Network | None = None,
) -> SpanningForestResult:
    """Run the spanning-forest clustering protocol over *topology*."""
    require_positive(delta, "delta")
    if network is None:
        network = Network(topology.graph)
    start_stats = network.stats.snapshot()

    nodes: dict[Hashable, SpanningForestNode] = {}
    for node_id in topology.graph.nodes:
        nodes[node_id] = SpanningForestNode(
            node_id,
            network,
            np.asarray(features[node_id], dtype=np.float64),
            metric=metric,
            delta=delta,
        )
    for node in nodes.values():
        network.kernel.schedule(0.0, node.broadcast_feature)
        if network.graph.degree(node.node_id) == 0:
            network.kernel.schedule(0.0, node._select_parent)
    network.run(max_events=100 * len(nodes) + 10_000)

    # A node's detach cut its link; remaining parent pointers form the
    # cluster forest.  Roots: original forest roots + detached nodes.
    assignment: dict[Hashable, Hashable] = {}
    parents: dict[Hashable, Hashable] = {}
    for node_id, node in nodes.items():
        parents[node_id] = node.parent if node.parent is not None else node_id
    for node_id in nodes:
        current = node_id
        seen = {current}
        while parents[current] != current:
            current = parents[current]
            if current in seen:
                raise RuntimeError(f"spanning-forest parent cycle at {current!r}")
            seen.add(current)
        assignment[node_id] = current

    clustering = clustering_from_assignment(
        topology.graph,
        assignment,
        {node_id: node.feature for node_id, node in nodes.items()},
        parents=parents,
    )
    completion = max(
        (node.done_at for node in nodes.values() if node.done_at is not None), default=0.0
    )
    return SpanningForestResult(clustering, network.stats.diff(start_stats), completion)


def _id_less(a: Hashable, b: Hashable) -> bool:
    """Total order on node ids (falls back to repr for mixed types)."""
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return repr(a) < repr(b)
