"""TAG aggregation baseline for range queries (paper §8.3).

TAG (TinyDB's Tiny AGgregation service) answers every query over a fixed
overlay spanning tree rooted at the base station: the *distribution* phase
pushes the query down every tree edge, the *collection* phase aggregates
partial results up every tree edge.  Its per-query cost is therefore fixed
— the paper notes it equals twice the number of spanning-tree edges — and
independent of how selective the query is, which is exactly what the
clustered algorithm beats.

For a fair comparison with the clustered engine we charge the same value
counts: ``dim+1`` values per edge for the query going down and 1 value per
edge for the aggregate coming up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_non_negative
from repro.features.metrics import Metric


@dataclass
class TagQueryResult:
    """Result set plus the (fixed) communication cost."""

    matches: set[Hashable]
    messages: int


class TagEngine:
    """Overlay-tree aggregation engine (distribute + collect)."""

    def __init__(
        self,
        graph: nx.Graph,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        base_station: Hashable | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("graph must have at least one node")
        self.graph = graph
        self.features = {k: np.asarray(v, dtype=np.float64) for k, v in features.items()}
        self.metric = metric
        self.base_station = base_station if base_station is not None else next(iter(graph.nodes))
        if self.base_station not in graph:
            raise KeyError(f"base station {self.base_station!r} not in graph")
        self.overlay = nx.bfs_tree(graph, self.base_station)
        #: Number of edges in the overlay tree (it never changes).
        self.tree_edges = self.overlay.number_of_edges()
        self._dim = int(next(iter(self.features.values())).shape[0])

    def per_query_cost(self) -> int:
        """Fixed cost: (dim+1) down + 1 up on every overlay edge."""
        return (self._dim + 2) * self.tree_edges

    def query(self, q: np.ndarray, radius: float) -> TagQueryResult:
        """Evaluate a range query by full distribute-and-collect."""
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        matches = {
            node
            for node, feature in self.features.items()
            if self.metric.distance(q, feature) <= radius
        }
        return TagQueryResult(matches, self.per_query_cost())
