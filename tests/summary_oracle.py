"""Reference range-summary build: the per-pair loop, kept as an oracle.

This is the original summary loop of the ``RangeQueryEngine`` build and the BFS
``QueryContext.far_side`` it walked, unchanged: one far-side BFS per
backbone edge direction and one scalar ``metric.distance`` per
(direction, far-side cluster) pair.  The production build (one preorder
and one distance row per backbone node) must reproduce its key set, its
centre objects and its radii exactly (``tests/test_summary_identity.py``);
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np

from repro.queries.context import QueryContext


def far_side(tree: nx.Graph, src: Hashable, dst: Hashable) -> set[Hashable]:
    """Backbone nodes reachable from *dst* without crossing (src, dst)."""
    seen = {dst}
    stack = [dst]
    while stack:
        current = stack.pop()
        for neighbor in tree.neighbors(current):
            if neighbor == src and current == dst:
                continue
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def summaries(
    context: QueryContext,
) -> dict[tuple[Hashable, Hashable], tuple[np.ndarray, float]]:
    """Directional backbone summaries of *context* (see module docstring)."""
    out: dict[tuple[Hashable, Hashable], tuple[np.ndarray, float]] = {}
    tree = context.backbone.tree
    for a, b in tree.edges:
        for src, dst in ((a, b), (b, a)):
            center = context.mtree.routing_feature[dst]
            radius = 0.0
            for root in far_side(tree, src, dst):
                root_center, root_radius = context.routing_ball(root)
                d = context.metric.distance(center, root_center)
                radius = max(radius, d + root_radius)
            out[(src, dst)] = (center, radius)
    return out
