"""Distributed M-tree index on cluster trees (paper §7.1).

Each node *i* of a cluster tree maintains a routing feature ``F_i^R`` (its
own feature) and a covering radius ``R_i`` such that every node in the
subtree rooted at *i* has feature distance at most ``R_i`` from ``F_i^R``.
Leaves start with ``R = 0`` and propagate ``(F^R, R)`` to their parents;
each parent folds its children in:

    R_i = max_j ( d(F_i^R, F_j^R) + R_j )

— the triangle-inequality-safe bound the M-tree uses.  Each parent also
remembers its children's ``(F^R, R)`` pairs, enabling the parent-side
pruning checks of §7.1 without extra messages at query time.

The build is charged ``(dim+1)`` values per cluster-tree edge (feature +
radius flowing upward), mirroring the physical bottom-up aggregation.
Its work is per tree edge too: a leaf (every member of a singleton
cluster is one) keeps the shared empty child list and child table, and
a singleton cluster's root is not walked at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.sim.messages import CATEGORY_DATA
from repro.sim.stats import MessageStats

#: The child table of every leaf: one shared, read-only empty mapping.
_LEAF_INFO: Mapping[Hashable, tuple[float, float]] = MappingProxyType({})


@dataclass
class MTreeIndex:
    """Per-node routing features, covering radii and child tables."""

    routing_feature: dict[Hashable, np.ndarray]
    covering_radius: dict[Hashable, float]
    children: dict[Hashable, Sequence[Hashable]]
    #: parent-side table: node -> child -> (d(F_i^R, F_j^R), R_j)
    child_info: dict[Hashable, Mapping[Hashable, tuple[float, float]]]
    build_messages: int = 0
    stats: MessageStats = field(default_factory=MessageStats)


def build_mtree(
    clustering: Clustering,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
) -> MTreeIndex:
    """Build the distributed M-tree over every cluster tree, bottom-up."""
    children = clustering.tree_children()
    routing_feature = {
        node: np.asarray(features[node], dtype=np.float64) for node in clustering.assignment
    }
    covering_radius: dict[Hashable, float] = {}
    child_info: dict[Hashable, Mapping[Hashable, tuple[float, float]]] = dict.fromkeys(
        clustering.assignment, _LEAF_INFO
    )
    dim = int(next(iter(routing_feature.values())).shape[0]) if routing_feature else 1
    edges = 0

    for root in clustering.roots:
        if not children[root]:
            covering_radius[root] = 0.0  # a singleton cluster
            continue
        # Post-order over the cluster tree (iterative to spare the stack).
        order: list[Hashable] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        for node in reversed(order):
            radius = 0.0
            kids = children[node]
            if kids:
                info = child_info[node] = {}
                feature = routing_feature[node]
                for child in kids:
                    d = metric.distance(feature, routing_feature[child])
                    child_radius = covering_radius[child]
                    info[child] = (d, child_radius)
                    radius = max(radius, d + child_radius)
                edges += len(kids)
            covering_radius[node] = radius

    stats = MessageStats()
    if edges:
        # Each child ships (feature, radius) one hop up the tree.
        stats.charge("feature", CATEGORY_DATA, dim + 1, hops=edges)
    return MTreeIndex(
        routing_feature,
        covering_radius,
        children,
        child_info,
        build_messages=stats.total_values,
        stats=stats,
    )


def verify_covering_invariant(
    index: MTreeIndex,
    clustering: Clustering,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    *,
    tolerance: float = 1e-9,
) -> list[str]:
    """Check that every subtree member lies within its ancestors' radii.

    Returns human-readable violations (empty list == invariant holds).
    Used by tests and by the index self-checks.
    """
    problems: list[str] = []
    for root in clustering.roots:
        stack: list[tuple[Hashable, list[Hashable]]] = [(root, [root])]
        while stack:
            node, ancestors = stack.pop()
            for ancestor in ancestors:
                d = metric.distance(features[node], index.routing_feature[ancestor])
                if d > index.covering_radius[ancestor] + tolerance:
                    problems.append(
                        f"node {node!r} at distance {d:.4f} from ancestor {ancestor!r} "
                        f"with covering radius {index.covering_radius[ancestor]:.4f}"
                    )
            for child in index.children[node]:
                stack.append((child, ancestors + [child]))
    return problems
