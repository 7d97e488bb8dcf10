"""Reference topology generation: the pairwise formulation, kept as an oracle.

This is the original generation code of ``repro.geometry.topology``,
unchanged: ``random_geometric_topology`` with its O(n²) range loop below
``SPATIAL_HASH_MIN_N`` nodes and the spatial hash (``_hash_cells`` and the
per-member loop of ``_range_edges_grid``) at and above it,
``scatter_topology`` with its O(n²) range loop, the round-by-round
``_stitch_components``, which recomputes the components and a full
core×rest distance matrix for every stitch edge, and the centroid-MST
``_stitch_components_grid`` above the threshold, whose Prim measures every
centroid against the one last added (O(C²) for C components).  Only the
artifact-cache decorator is left off.  The production generators must
reproduce these graphs exactly, node order and every neighbour order
included (``tests/test_topology_identity.py``); nothing under ``src/``
imports it.

``adjacency_arrays`` is the per-edge loop in which ``Network`` once built
its CSR snapshot of a graph; ``repro.geometry.topology.adjacency_arrays``
must return the same arrays.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least, require_positive
from repro.geometry.topology import SPATIAL_HASH_MIN_N, Topology


def random_geometric_topology(
    n: int,
    *,
    seed: int,
    density: float = 0.8,
    target_degree: float = 4.0,
    radio_range: float | None = None,
    connect: bool = True,
) -> Topology:
    """Uniform-random node placement with radio-range links (paper §8.1).

    Nodes are placed uniformly in a square sized so the node density matches
    *density* (paper: 0.7–0.9 nodes per unit area).  Unless *radio_range* is
    given, the range is chosen so the expected neighbour count is
    *target_degree* (paper: ~4 nodes within radio range).

    With *connect* (default), disconnected components are stitched together
    by linking the closest pair of nodes across components — physically this
    models a slightly larger transmit power for the handful of fringe nodes,
    and keeps every experiment on one connected network (the paper implicitly
    assumes a connected *CG*).
    """
    require_int_at_least(n, 1, "n")
    require_positive(density, "density")
    require_positive(target_degree, "target_degree")
    rng = np.random.default_rng(seed)
    side = math.sqrt(n / density)
    coords = rng.uniform(0.0, side, size=(n, 2))
    if radio_range is None:
        # Expected neighbours of a node = (n-1) * pi r^2 / side^2.
        radio_range = side * math.sqrt(target_degree / (math.pi * max(n - 1, 1)))
    else:
        require_positive(radio_range, "radio_range")

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    positions = {i: (float(coords[i, 0]), float(coords[i, 1])) for i in range(n)}
    if n >= SPATIAL_HASH_MIN_N:
        _range_edges_grid(graph, coords, radio_range)
        if connect and n > 1:
            _stitch_components_grid(graph, coords)
    else:
        # O(n^2) range test is fine at the paper's scales (<= a few thousand).
        for i in range(n):
            deltas = coords[i + 1 :] - coords[i]
            dists = np.hypot(deltas[:, 0], deltas[:, 1])
            for offset in np.nonzero(dists <= radio_range)[0]:
                graph.add_edge(i, i + 1 + int(offset))
        if connect and n > 1:
            _stitch_components(graph, coords)
    return Topology(graph, positions)


def scatter_topology(
    points: Mapping[Hashable, tuple[float, float]],
    *,
    radio_range: float,
    connect: bool = True,
) -> Topology:
    """Build a topology from explicit node positions and a radio range."""
    require_positive(radio_range, "radio_range")
    ids = list(points)
    if not ids:
        raise ValueError("points must be non-empty")
    coords = np.asarray([points[i] for i in ids], dtype=np.float64)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    for a in range(len(ids)):
        deltas = coords[a + 1 :] - coords[a]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        for offset in np.nonzero(dists <= radio_range)[0]:
            graph.add_edge(ids[a], ids[a + 1 + int(offset)])
    if connect and len(ids) > 1:
        _stitch_components(graph, coords, ids=ids)
    positions = {i: (float(points[i][0]), float(points[i][1])) for i in ids}
    return Topology(graph, positions)


def _hash_cells(coords: np.ndarray, cell: float) -> dict[tuple[int, int], np.ndarray]:
    """Bucket point indices by cell of a *cell*-sized square grid.

    Bucket membership lists are ascending (points visited in index order),
    and the dict itself is in first-seen order — both deterministic
    functions of the coordinates.
    """
    keys_x = np.floor(coords[:, 0] / cell).astype(np.int64)
    keys_y = np.floor(coords[:, 1] / cell).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(coords.shape[0]):
        buckets.setdefault((int(keys_x[i]), int(keys_y[i])), []).append(i)
    return {key: np.asarray(members, dtype=np.int64) for key, members in buckets.items()}


def _range_edges_grid(graph: nx.Graph, coords: np.ndarray, radio_range: float) -> None:
    """Add all edges with pairwise distance <= radio_range via a cell grid.

    Same edge *set* as the O(n²) loop — the range predicate is the identical
    ``np.hypot(dx, dy) <= radio_range`` on the same float64 coordinates, and
    with cell side = radio_range any in-range pair sits in adjacent cells.
    Edge insertion order differs (grouped by cell rather than strictly
    ascending i) but is deterministic, which is all the BFS tie-breaking
    contract above :data:`SPATIAL_HASH_MIN_N` requires.
    """
    buckets = _hash_cells(coords, radio_range)
    add_edge = graph.add_edge
    for (kx, ky), members in buckets.items():
        blocks = [
            buckets[key]
            for key in (
                (kx + dx, ky + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            )
            if key in buckets
        ]
        cand = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        pts = coords[cand]
        for i in members.tolist():
            deltas = pts - coords[i]
            close = np.hypot(deltas[:, 0], deltas[:, 1]) <= radio_range
            for j in cand[close & (cand > i)].tolist():
                add_edge(i, j)


def _stitch_components_grid(graph: nx.Graph, coords: np.ndarray) -> None:
    """Scalable variant of :func:`_stitch_components` for large n.

    At the paper's target degree (~4) a geometric graph sits *below* the
    continuum-percolation threshold (mean degree ≈ 4.51), so there is no
    giant component: a 10⁵-node graph fragments into thousands of
    components, some with thousands of members, and the legacy
    round-by-round core×rest distance matrix is hopeless.  Instead this
    builds a minimum spanning tree over component *centroids* (dense
    vectorized Prim, O(C²) for C components) and realizes each MST edge as
    the closest actual node pair between the two components — one stitch
    edge per MST edge, connected by construction in a single pass.

    Deterministic: components are indexed largest-first (ties on smallest
    member id), centroids average members in ascending id order, Prim
    starts from component 0 and breaks distance ties on the lowest
    component index, and closest-pair ties resolve row-major over the
    ascending member-id matrix.
    """
    components = list(nx.connected_components(graph))
    if len(components) <= 1:
        return
    components.sort(key=lambda comp: (-len(comp), min(comp)))
    members = [np.asarray(sorted(comp), dtype=np.int64) for comp in components]
    centroids = np.asarray([coords[m].mean(axis=0) for m in members])
    n_comp = len(components)

    # Prim over the complete centroid graph.
    in_tree = np.zeros(n_comp, dtype=bool)
    best_dist = np.full(n_comp, np.inf)
    best_from = np.zeros(n_comp, dtype=np.int64)
    current = 0
    in_tree[0] = True
    for _ in range(n_comp - 1):
        deltas = centroids - centroids[current]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        closer = ~in_tree & (dists < best_dist)
        best_dist[closer] = dists[closer]
        best_from[closer] = current
        nxt = int(np.argmin(np.where(in_tree, np.inf, best_dist)))
        # Realize the MST edge (best_from[nxt], nxt) as the closest
        # cross-component node pair.  Chunked over the first component so
        # two large components never materialize a giant |A|×|B| matrix;
        # strict < keeps the row-major tie-break across chunks.
        ma, mb = members[best_from[nxt]], members[nxt]
        pts_b = coords[mb]
        pair_best = np.inf
        a = b = 0
        for start in range(0, len(ma), 1024):
            block = ma[start : start + 1024]
            pair = coords[block][:, None, :] - pts_b[None, :, :]
            pair_dists = np.hypot(pair[..., 0], pair[..., 1])
            i, j = np.unravel_index(np.argmin(pair_dists), pair_dists.shape)
            if pair_dists[i, j] < pair_best:
                pair_best = float(pair_dists[i, j])
                a, b = start + int(i), int(j)
        graph.add_edge(int(ma[a]), int(mb[b]))
        in_tree[nxt] = True
        best_dist[nxt] = np.inf
        current = nxt


def _stitch_components(graph: nx.Graph, coords: np.ndarray, ids: list | None = None) -> None:
    """Connect graph components by linking nearest cross-component node pairs."""
    if ids is None:
        ids = list(range(coords.shape[0]))
    index_of = {node: k for k, node in enumerate(ids)}
    while True:
        components = list(nx.connected_components(graph))
        if len(components) <= 1:
            return
        # Link the largest component to the closest node outside it.
        components.sort(key=len, reverse=True)
        core = components[0]
        core_idx = np.asarray([index_of[v] for v in core])
        rest = [v for comp in components[1:] for v in comp]
        rest_idx = np.asarray([index_of[v] for v in rest])
        diffs = coords[core_idx][:, None, :] - coords[rest_idx][None, :, :]
        dists = np.hypot(diffs[..., 0], diffs[..., 1])
        a, b = np.unravel_index(np.argmin(dists), dists.shape)
        graph.add_edge(ids[core_idx[a]], ids[rest_idx[b]])


def adjacency_arrays(graph: nx.Graph):
    """``(nodes, index, indptr, indices)`` of *graph*, one neighbour at a time.

    The loop allocates ``2 * graph.number_of_edges()`` neighbour slots and
    a self-loop fills one of its two, so only ``indices[:indptr[-1]]`` is
    defined.
    """
    nodes = list(graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    indices = np.empty(2 * graph.number_of_edges(), dtype=np.int64)
    pos = 0
    for i, (_, nbrs) in enumerate(graph.adj.items()):
        for w in nbrs:
            indices[pos] = index[w]
            pos += 1
        indptr[i + 1] = pos
    return nodes, index, indptr, indices
