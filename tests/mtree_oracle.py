"""Reference M-tree build: the per-node formulation, kept as an oracle.

This is the original ``repro.index.mtree.build_mtree``, unchanged but for
reading the children map from :func:`tree_children`, the original
``Clustering.tree_children``: every node gets its own child list and its
own child table, every root is walked, and every tree edge records one
``Message``.  The production build must reproduce its dicts, radii,
build cost and stats exactly (``tests/test_mtree_identity.py``); nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.mtree import MTreeIndex
from repro.sim.messages import Message
from repro.sim.stats import MessageStats


def tree_children(clustering: Clustering) -> dict[Hashable, list[Hashable]]:
    """Mapping node -> its cluster-tree children."""
    children: dict[Hashable, list[Hashable]] = {node: [] for node in clustering.assignment}
    for node, par in clustering.parent.items():
        if par != node:
            children[par].append(node)
    return children


def build_mtree(
    clustering: Clustering,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
) -> MTreeIndex:
    """Build the distributed M-tree over every cluster tree, bottom-up."""
    children = tree_children(clustering)
    routing_feature = {
        node: np.asarray(features[node], dtype=np.float64) for node in clustering.assignment
    }
    covering_radius: dict[Hashable, float] = {}
    child_info: dict[Hashable, dict[Hashable, tuple[float, float]]] = {
        node: {} for node in clustering.assignment
    }
    stats = MessageStats()
    dim = int(next(iter(routing_feature.values())).shape[0]) if routing_feature else 1

    for root in clustering.roots:
        # Post-order over the cluster tree (iterative to spare the stack).
        order: list[Hashable] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        for node in reversed(order):
            radius = 0.0
            for child in children[node]:
                d = metric.distance(routing_feature[node], routing_feature[child])
                child_radius = covering_radius[child]
                child_info[node][child] = (d, child_radius)
                radius = max(radius, d + child_radius)
                # The child ships (feature, radius) one hop up the tree.
                stats.record(Message("feature", child, node, values=dim + 1), hops=1)
            covering_radius[node] = radius

    return MTreeIndex(
        routing_feature,
        covering_radius,
        children,
        child_info,
        build_messages=stats.total_values,
        stats=stats,
    )
