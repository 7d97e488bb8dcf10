"""Centralized spectral-clustering baseline (paper §8.3).

Every node ships its model coefficients to a base station, which runs the
Ng–Jordan–Weiss spectral decomposition on the communication-graph affinity
matrix, partitioning the network into *k* clusters; the algorithm is
repeated with growing *k* and the smallest *k* whose clusters all satisfy
the δ-condition is kept.

Two deliberate clarifications of the paper's description (see DESIGN.md):

- The paper defines affinity ``a(i,j) = d(F_i, F_j)`` on edges, but a raw
  *distance* used as *affinity* inverts similarity.  Following the cited
  NJW paper we default to the Gaussian kernel
  ``a(i,j) = exp(-d²/(2σ²))`` (σ = median edge distance); the literal
  variant is available as ``affinity="distance"`` for comparison.
- Spectral partitions need not induce connected subgraphs, while
  δ-clusters must be connected; each spectral part is therefore split into
  its connected components before the δ-check, and the reported cluster
  count is the number of components.

Communication cost of the centralized scheme (used by Figs 12–13): every
node sends its ``dim`` coefficients to the base station over multi-hop
routes — ``Σ_i dim · hops(i, base)`` — plus the slack-triggered coefficient
updates modelled by
:class:`repro.core.maintenance.CentralizedUpdateBaseline`.

Performance: everything about a spectral attempt at a given *k* — the
affinity matrix, the Laplacian eigendecomposition, the k-means labels, the
connected-component split, even the resulting :class:`Clustering` — is
independent of δ; only the final δ-compactness check is not.  A
:class:`SpectralSolver` therefore caches all of it per (graph, features)
instance, so a δ sweep (Figs 8, 9, 11) pays for one eigendecomposition and
one k-means per distinct *k* instead of one per (δ, k) pair.  This is the
change that restores Fig 9 to the paper's 2500-sensor × 5-topology scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least, require_positive
from repro.core.delta import (
    Clustering,
    _member_components,
    check_delta_compact,
    clustering_from_assignment,
)
from repro.features.metrics import Metric

#: Slop used by every δ-compactness comparison (matches check_delta_compact).
_DELTA_TOLERANCE = 1e-9


@dataclass
class SpectralResult:
    """Outcome of the centralized spectral search."""

    clustering: Clustering
    k_used: int  # the k accepted by the search (number of spectral parts)
    messages: int  # coefficient-shipping cost to the base station

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the result."""
        return self.clustering.num_clusters


def centralized_collection_cost(
    graph: nx.Graph, base_station: Hashable, feature_dim: int
) -> int:
    """Messages to ship every node's coefficients to the base station."""
    require_int_at_least(feature_dim, 1, "feature_dim")
    hops = nx.single_source_shortest_path_length(graph, base_station)
    return sum(feature_dim * max(h, 1) for node, h in hops.items() if node != base_station)


class SpectralSolver:
    """δ-independent spectral state, reusable across a δ sweep.

    Construct once per (graph, features, metric) instance and pass to
    :func:`spectral_clustering_search` for every δ; all heavy state — the
    affinity matrix, the eigendecomposition, per-k partitions and
    clusterings — is computed once and shared.  Returned clusterings are
    cached objects; treat them as immutable (everything else in this
    library already does).
    """

    def __init__(
        self,
        graph: nx.Graph,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        *,
        affinity: str = "gaussian",
        seed: int = 0,
    ):
        if affinity not in ("gaussian", "distance"):
            raise ValueError(f"affinity must be 'gaussian' or 'distance', got {affinity!r}")
        self.graph = graph
        self.features = features
        self.metric = metric
        self.affinity = affinity
        self.seed = seed
        self.nodes = list(graph.nodes)
        if not self.nodes:
            raise ValueError("graph must have at least one node")
        self.index_of = {node: i for i, node in enumerate(self.nodes)}
        self._affinity_matrix: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None
        # Per-k caches (everything here is δ-independent).
        self._assignments: dict[int, dict[Hashable, Hashable]] = {}
        self._member_indices: dict[int, list[np.ndarray]] = {}
        self._member_nodes: dict[int, list[list[Hashable]]] = {}
        self._clusterings: dict[int, Clustering] = {}
        self._feature_matrix = self._build_feature_matrix()

    def _build_feature_matrix(self) -> np.ndarray | None:
        try:
            matrix = np.asarray(
                [np.atleast_1d(np.asarray(self.features[v], dtype=np.float64)) for v in self.nodes]
            )
        except (TypeError, ValueError):
            return None  # non-vector features (e.g. MatrixMetric node ids)
        if matrix.ndim != 2:
            return None
        return matrix

    @property
    def feature_dim(self) -> int:
        """Dimension of one node's coefficient vector."""
        return int(np.atleast_1d(np.asarray(self.features[self.nodes[0]])).shape[0])

    def affinity_matrix(self) -> np.ndarray:
        """The edge affinity matrix (computed once, then cached)."""
        if self._affinity_matrix is None:
            self._affinity_matrix = _edge_affinity(
                self.graph, self.features, self.metric, self.nodes, self.index_of, self.affinity
            )
        return self._affinity_matrix

    def _spectral_labels(self, k: int) -> np.ndarray:
        """NJW: normalized Laplacian -> top-k eigenvectors -> k-means labels."""
        n = len(self.nodes)
        if k >= n:
            return np.arange(n)
        if k == 1:
            return np.zeros(n, dtype=int)
        if self._eigvecs is None:
            # The O(N³) heart of the solver: one eigh per solver, shared by
            # every k (eigh at N=2500 takes 2–3 s on a 2-CPU host).
            affinity = self.affinity_matrix()
            degree = affinity.sum(axis=1)
            inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1e-12)), 0.0)
            lsym = inv_sqrt[:, None] * affinity * inv_sqrt[None, :]
            _eigvals, eigvecs = np.linalg.eigh(lsym)
            self._eigvecs = eigvecs[:, ::-1]
        # Cap the embedding dimension: for large k the extra eigenvectors add
        # little but make k-means quadratically slower (standard practice).
        embedding = self._eigvecs[:, : min(k, 32)]
        norms = np.linalg.norm(embedding, axis=1, keepdims=True)
        embedding = embedding / np.maximum(norms, 1e-12)
        return _kmeans(embedding, k, self.seed)

    def _partition_members(self, k: int) -> tuple[list[np.ndarray], list[list[Hashable]]]:
        """Connected components of the k-way spectral partition, as index
        arrays (for the vectorized δ-check) and node lists."""
        if k not in self._member_indices:
            labels = self._spectral_labels(k)
            assignment = _components_assignment(self.graph, self.nodes, labels)
            members: dict[Hashable, list[Hashable]] = {}
            for node, root in assignment.items():
                members.setdefault(root, []).append(node)
            self._assignments[k] = assignment
            self._member_nodes[k] = list(members.values())
            index_of = self.index_of
            self._member_indices[k] = [
                np.fromiter((index_of[v] for v in nodes), dtype=np.intp, count=len(nodes))
                for nodes in self._member_nodes[k]
            ]
        return self._member_indices[k], self._member_nodes[k]

    def _compact(self, idx: np.ndarray, nodes: list[Hashable], delta: float) -> bool:
        """δ-compactness of one cluster, vectorized where the metric allows."""
        if idx.shape[0] <= 1:
            return True
        fmatrix = self._feature_matrix
        if fmatrix is None:
            return not check_delta_compact(nodes, self.features, self.metric, delta, limit=1)
        rows = fmatrix[idx]
        if rows.shape[1] == 1:
            # 1-d features: the vectorized metrics are all monotone in
            # |a - b|, so the max pairwise distance is attained by the
            # value range — an O(m) check instead of O(m²).
            extremes = np.array([[rows.min()], [rows.max()]])
            distances = self.metric.pairwise_matrix(extremes)
            if distances is not None:
                return float(distances[0, 1]) <= delta + _DELTA_TOLERANCE
        distances = self.metric.pairwise_matrix(rows)
        if distances is None:
            return not check_delta_compact(nodes, self.features, self.metric, delta, limit=1)
        return not bool(np.any(distances > delta + _DELTA_TOLERANCE))

    def attempt(self, k: int, delta: float) -> Clustering | None:
        """The k-way spectral clustering if it satisfies δ, else None."""
        member_indices, member_nodes = self._partition_members(k)
        for idx, nodes in zip(member_indices, member_nodes):
            if not self._compact(idx, nodes, delta):
                return None
        if k not in self._clusterings:
            self._clusterings[k] = clustering_from_assignment(
                self.graph, self._assignments[k], self.features
            )
        return self._clusterings[k]

    def collection_cost(self, base_station: Hashable) -> int:
        """Coefficient-shipping cost to *base_station* (δ-independent)."""
        return centralized_collection_cost(self.graph, base_station, self.feature_dim)


def spectral_clustering_search(
    graph: nx.Graph | None = None,
    features: Mapping[Hashable, np.ndarray] | None = None,
    metric: Metric | None = None,
    delta: float = 0.0,
    *,
    base_station: Hashable | None = None,
    affinity: str = "gaussian",
    seed: int = 0,
    max_k: int | None = None,
    search: str = "linear",
    solver: SpectralSolver | None = None,
) -> SpectralResult:
    """Smallest-k spectral δ-clustering at the base station (paper §8.3).

    Returns the accepted clustering; its message cost covers shipping the
    coefficients in (clustering itself is computed at the powered base
    station, which the paper treats as free).

    ``search="linear"`` tries k = 1, 2, ... exactly as the paper describes;
    ``search="doubling"`` doubles k to find a feasible value and then
    bisects for the smallest one (feasibility is monotone enough in
    practice), which matters on 2500-node inputs.

    Pass a prebuilt :class:`SpectralSolver` when sweeping δ over one
    dataset — the eigendecomposition and the per-k partitions are then
    computed once for the whole sweep instead of once per δ.
    """
    require_positive(delta, "delta")
    if search not in ("linear", "doubling"):
        raise ValueError(f"search must be 'linear' or 'doubling', got {search!r}")
    if solver is None:
        if graph is None or features is None or metric is None:
            raise ValueError("either a solver or (graph, features, metric) is required")
        solver = SpectralSolver(graph, features, metric, affinity=affinity, seed=seed)
    nodes = solver.nodes
    n = len(nodes)
    if base_station is None:
        base_station = nodes[0]
    if max_k is None:
        max_k = n

    def attempt(k: int) -> Clustering | None:
        return solver.attempt(k, delta)

    accepted: Clustering | None = None
    k_used = n
    if search == "linear":
        for k in range(1, max_k + 1):
            accepted = attempt(k)
            if accepted is not None:
                k_used = k
                break
    else:
        feasible_k: int | None = None
        feasible: Clustering | None = None
        last_infeasible = 0
        k = 1
        while k < max_k:
            candidate = attempt(k)
            if candidate is not None:
                feasible_k, feasible = k, candidate
                break
            last_infeasible = k
            k *= 2
        if feasible_k is None:
            # Doubling overshot: k = max_k (== n gives singletons) is
            # always feasible; bisect below it.
            candidate = attempt(max_k)
            if candidate is not None:
                feasible_k, feasible = max_k, candidate
        if feasible_k is not None and feasible_k > last_infeasible + 1:
            low, high = last_infeasible + 1, feasible_k
            while low < high:
                mid = (low + high) // 2
                candidate = attempt(mid)
                if candidate is not None:
                    high, feasible, feasible_k = mid, candidate, mid
                else:
                    low = mid + 1
        accepted, k_used = feasible, (feasible_k if feasible_k is not None else n)
    if accepted is None:
        # Degenerate fallback: singletons always satisfy the δ-condition.
        accepted = clustering_from_assignment(
            solver.graph, {v: v for v in nodes}, solver.features
        )
        k_used = n

    messages = solver.collection_cost(base_station)
    return SpectralResult(accepted, k_used, messages)


def _edge_affinity(
    graph: nx.Graph,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    nodes: list[Hashable],
    index_of: Mapping[Hashable, int],
    affinity: str,
) -> np.ndarray:
    if affinity not in ("gaussian", "distance"):
        raise ValueError(f"affinity must be 'gaussian' or 'distance', got {affinity!r}")
    n = len(nodes)
    matrix = np.zeros((n, n), dtype=np.float64)
    edge_distances = []
    for a, b in graph.edges:
        d = metric.distance(features[a], features[b])
        edge_distances.append(d)
        matrix[index_of[a], index_of[b]] = d
        matrix[index_of[b], index_of[a]] = d
    if affinity == "distance":
        return matrix
    positive = [d for d in edge_distances if d > 0]
    sigma = float(np.median(positive)) if positive else 1.0
    if not np.isfinite(sigma) or sigma <= 0:
        sigma = 1.0
    out = np.zeros_like(matrix)
    for a, b in graph.edges:
        i, j = index_of[a], index_of[b]
        out[i, j] = out[j, i] = np.exp(-(matrix[i, j] ** 2) / (2.0 * sigma**2))
    return out


def _kmeans(points: np.ndarray, k: int, seed: int, iterations: int = 50) -> np.ndarray:
    """Plain Lloyd's k-means with k-means++ seeding (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 1e-18:
            centers[c:] = points[int(rng.integers(n))]
            break
        probabilities = closest / total
        choice = int(rng.choice(n, p=probabilities))
        centers[c] = points[choice]
        closest = np.minimum(closest, np.sum((points - centers[c]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    # Distance columns are refreshed per center, and only for centers that
    # moved since the previous iteration: an unchanged center yields a
    # bitwise-identical column, so skipping it cannot alter the matrix (and
    # per-center columns match the (n, k, d) broadcast bit for bit — the sum
    # reduces the same d elements in the same order).  Lloyd's converges
    # centre by centre, so late iterations touch only a few columns.
    distances = np.empty((n, k))
    changed: Iterable[int] = range(k)
    for iteration in range(iterations):
        for c in changed:
            diff = points - centers[c]
            distances[:, c] = np.sum(diff**2, axis=1)
        new_labels = distances.argmin(axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Group points by label via one stable argsort instead of k boolean
        # masks; slices select member rows in the same ascending-index
        # order a mask would, so each mean is bitwise identical.
        counts = np.bincount(labels, minlength=k)
        order = np.argsort(labels, kind="stable")
        start = 0
        moved = []
        for c in range(k):
            count = counts[c]
            if count:
                stop = start + count
                new_center = points[order[start:stop]].mean(axis=0)
                start = stop
                if not np.array_equal(new_center, centers[c]):
                    centers[c] = new_center
                    moved.append(c)
        changed = moved
    return labels


def _components_assignment(
    graph: nx.Graph, nodes: list[Hashable], labels: np.ndarray
) -> dict[Hashable, Hashable]:
    """Split each spectral part into connected components; root = min-id.

    Each part goes through one component sweep
    (:func:`repro.core.delta._member_components`) in graph node order —
    *nodes* is the graph's node order — without materializing a subgraph
    view per part.  The components equal ``nx.connected_components`` on
    the induced subgraph as sets, not necessarily in its order.
    """
    assignment: dict[Hashable, Hashable] = {}
    by_label: dict[int, list[Hashable]] = {}
    for node, label in zip(nodes, labels):
        by_label.setdefault(int(label), []).append(node)
    adj = graph._adj
    for cluster_nodes in by_label.values():
        for component in _member_components(adj, set(cluster_nodes), cluster_nodes, set()):
            root = min(component, key=repr)
            for node in component:
                assignment[node] = root
    return assignment
