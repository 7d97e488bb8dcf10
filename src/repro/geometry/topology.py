"""Network topologies (paper §8.1).

Three topology families are used by the paper's evaluation:

- a regular grid (the Tao 6×9 buoy array; also the idealized √N × √N grid
  the complexity analysis assumes),
- uniform-random geometric graphs with a small average degree (~4 radio
  neighbours) for the synthetic experiments, and
- random scatterings over a terrain for the Death Valley experiments.

A :class:`Topology` bundles the communication graph, node positions and the
bounding box — everything the quadtree decomposition and the simulator need.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least, require_positive

#: Node count at which :func:`random_geometric_topology` changes edge order
#: and stitcher.  Both sides find their edges with the same cell join
#: (:func:`_range_pairs`).  Below the threshold the edges go in in
#: ascending ``(i, j)`` order and components are stitched nearest node
#: first (:func:`_stitch_components`); at and above it the edges go in
#: grouped by radio-range cell and components are stitched along a
#: minimum spanning tree of their centroids (:func:`_stitch_components_grid`),
#: whose Prim runs over the centroid pairs the same cell join finds within
#: a growing radius and adds the edges a dense O(C²) Prim would.  Each side
#: keeps the graphs the generator has always built at its sizes, so every
#: pinned table stays byte-identical.
SPATIAL_HASH_MIN_N = 4096


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box of node positions."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        """Box width."""
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        """Box height."""
        return self.ymax - self.ymin

    @property
    def center(self) -> tuple[float, float]:
        """Box centre point."""
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains(self, x: float, y: float) -> bool:
        """Whether (x, y) lies inside the box."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass
class Topology:
    """A communication graph with node positions.

    Attributes
    ----------
    graph:
        The communication graph *CG*.
    positions:
        Mapping node id -> (x, y).
    """

    graph: nx.Graph
    positions: dict[Hashable, tuple[float, float]]
    _bounds: BoundingBox | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        missing = set(self.graph.nodes) - set(self.positions)
        if missing:
            raise ValueError(f"positions missing for nodes: {sorted(missing, key=repr)[:5]}")
        _finite_coords(self.positions)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the communication graph."""
        return self.graph.number_of_nodes()

    @property
    def bounds(self) -> BoundingBox:
        """Square bounding box of the node positions (quadtrees want squares)."""
        if self._bounds is None:
            xs = [p[0] for p in self.positions.values()]
            ys = [p[1] for p in self.positions.values()]
            xmin, xmax = min(xs), max(xs)
            ymin, ymax = min(ys), max(ys)
            side = max(xmax - xmin, ymax - ymin)
            # Inflate the shorter axis symmetrically so the box is square;
            # degenerate (single-point) topologies get a unit box.
            if side == 0:
                side = 1.0
            cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
            half = side / 2.0
            self._bounds = BoundingBox(cx - half, cy - half, cx + half, cy + half)
        return self._bounds

    def average_degree(self) -> float:
        """Mean node degree of the communication graph."""
        n = self.graph.number_of_nodes()
        return 2.0 * self.graph.number_of_edges() / n if n else 0.0

    def is_connected(self) -> bool:
        """Whether the communication graph is connected."""
        return self.num_nodes > 0 and nx.is_connected(self.graph)


#: Key of :func:`adjacency_arrays`' entry in a graph's ``__networkx_cache__``.
_CSR_CACHE_KEY = "repro.adjacency_arrays"


def adjacency_arrays(
    graph: nx.Graph,
) -> tuple[list[Hashable], dict[Hashable, int], np.ndarray, np.ndarray]:
    """*graph*'s adjacency as compressed sparse rows over a node index.

    Returns ``(nodes, index, indptr, indices)``: the nodes in graph order,
    each node's position in that list, and int64 row pointers and
    neighbour positions such that row ``i`` lists node ``i``'s neighbours,
    ``indices[indptr[i]:indptr[i + 1]]``, in ``graph.adj`` insertion
    order — the order the simulator's deliveries and BFS tie-breaks read.
    A self-loop lists its node once in its own row.

    One graph state is read once: the tuple is kept in the graph's
    ``__networkx_cache__``, which every networkx add/remove method empties,
    and returned again until then.  A frozen graph (a subgraph view, whose
    cache its base graph's changes leave alone) or one without that dict
    is read afresh on every call.  *indptr* and *indices* are read-only;
    *nodes* and *index* are shared too and must not be changed.
    """
    cache = None if nx.is_frozen(graph) else getattr(graph, "__networkx_cache__", None)
    if cache is not None and _CSR_CACHE_KEY in cache:
        return cache[_CSR_CACHE_KEY]
    adj = graph._adj
    nodes = list(adj)
    index = {v: i for i, v in enumerate(nodes)}
    degree = np.fromiter(map(len, adj.values()), dtype=np.int64, count=len(nodes))
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter(
        map(index.__getitem__, chain.from_iterable(adj.values())),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    indptr.flags.writeable = indices.flags.writeable = False
    arrays = (nodes, index, indptr, indices)
    if cache is not None:
        cache[_CSR_CACHE_KEY] = arrays
    return arrays


def grid_topology(rows: int, cols: int, *, spacing: float = 1.0) -> Topology:
    """A rows × cols grid with 4-neighbourhood links (node ids ``r*cols+c``).

    This is the Tao buoy layout (6×9) and the idealized analysis topology.
    """
    require_int_at_least(rows, 1, "rows")
    require_int_at_least(cols, 1, "cols")
    require_positive(spacing, "spacing")
    graph = nx.Graph()
    positions: dict[Hashable, tuple[float, float]] = {}
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            graph.add_node(node)
            positions[node] = (c * spacing, r * spacing)
            if c > 0:
                graph.add_edge(node, node - 1)
            if r > 0:
                graph.add_edge(node, node - cols)
    return Topology(graph, positions)


#: Element cap of one block of candidate pairs in :func:`_cell_join` and of
#: one block of distances in :func:`_stitch_components` (512 KB of
#: float64), so that no input, however dense, builds an n×n array.  Blocks
#: four times larger left scale_40k's peak RSS ~5 MB higher and ran no
#: faster.
_BLOCK = 1 << 16


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

    Every pair within *radio_range* is linked (:func:`_range_pairs`).  Below
    :data:`SPATIAL_HASH_MIN_N` nodes the edges are inserted in ascending
    ``(i, j)`` order; at and above it they are inserted grouped by cell.

    With *connect* (default), disconnected components are stitched together
    by linking the closest pair of nodes across components — physically this
    models a slightly larger transmit power for the handful of fringe nodes,
    and keeps every experiment on one connected network (the paper implicitly
    assumes a connected *CG*).  Below the threshold each component joins the
    largest one nearest node first (:func:`_stitch_components`); at and
    above it the components are joined along a minimum spanning tree of
    their centroids (:func:`_stitch_components_grid`).
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

    positions = {i: (float(coords[i, 0]), float(coords[i, 1])) for i in range(n)}
    grouped = n >= SPATIAL_HASH_MIN_N
    graph = _range_graph(range(n), coords, radio_range, grouped=grouped)
    if connect and n > 1:
        if grouped:
            _stitch_components_grid(graph, coords)
        else:
            _stitch_components(graph, coords, range(n))
    return Topology(graph, positions)


def scatter_topology(
    points: Mapping[Hashable, tuple[float, float]],
    *,
    radio_range: float,
    connect: bool = True,
) -> Topology:
    """Build a topology from explicit node positions and a radio range.

    Nodes keep the order of *points*.  Every pair within *radio_range* is
    linked (:func:`_range_pairs`), in ascending ``(i, j)`` order of that
    node order.  With *connect* (default) each component then joins the
    largest one nearest node first (:func:`_stitch_components`).  A
    non-finite position raises ``ValueError`` naming its node.
    """
    require_positive(radio_range, "radio_range")
    ids = list(points)
    if not ids:
        raise ValueError("points must be non-empty")
    positions = {i: (float(points[i][0]), float(points[i][1])) for i in ids}
    coords = _finite_coords(positions).reshape(-1, 2)
    graph = _range_graph(ids, coords, radio_range)
    if connect and len(ids) > 1:
        _stitch_components(graph, coords, ids)
    return Topology(graph, positions)


def _range_graph(
    ids: Sequence[Hashable], coords: np.ndarray, radio_range: float, *, grouped: bool = False
) -> nx.Graph:
    """The graph on *ids*, in order, linking every pair within *radio_range*.

    Edges go in in the order :func:`_range_pairs` returns them.  Their ends
    are the node objects themselves, not one copy per edge, so the graph
    holds one object per node.
    """
    nodes = np.fromiter(ids, dtype=object, count=len(ids))
    first, second = _range_pairs(coords, radio_range, grouped=grouped)
    graph = nx.Graph()
    graph.add_nodes_from(nodes.tolist())
    graph.add_edges_from(zip(nodes[first].tolist(), nodes[second].tolist()))
    return graph


def _finite_coords(positions: Mapping[Hashable, tuple[float, ...]]) -> np.ndarray:
    """Every coordinate of *positions* in one flat float64 array.

    Raises ``ValueError`` naming the first node with a NaN or ±inf
    coordinate.  The scan that finds it runs only when the one array pass
    over every coordinate finds such a value.
    """
    coords = np.fromiter(chain.from_iterable(positions.values()), dtype=np.float64)
    if not np.isfinite(coords).all():
        for node, position in positions.items():
            if not all(map(math.isfinite, position)):
                raise ValueError(f"position of node {node!r} must be finite, got {position!r}")
    return coords


def _range_pairs(
    coords: np.ndarray, radio_range: float, *, grouped: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``i < j`` with ``np.hypot(dx, dy) <= radio_range``.

    Returns ``(i, j)`` arrays in ascending ``(i, j)`` order or, with
    *grouped*, in spatial-hash order: side-*radio_range* cells in
    first-seen order, each cell's members ascending, and for each member
    ``i`` its partners ``j > i`` in the 3×3 cells around it, block by block
    in ``(dx, dy)`` order, then any partner outside them (a pair exactly
    *radio_range* apart once rounded can sit two cells away), each block
    ascending.
    """
    i, j = _cell_join(coords, radio_range)
    sequence = _grouped_order(coords, radio_range, i, j) if grouped else np.lexsort((j, i))
    return i[sequence], j[sequence]


def _cell_join(coords: np.ndarray, radio_range: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of :func:`_range_pairs`, in no particular order.

    Points are bucketed in square cells of side ``2**e``, the power of two
    just above *radio_range*, and each cell meets itself and its four
    forward neighbours, in blocks of about :data:`_BLOCK` candidate pairs.
    No in-range pair is missed: its rounded separation on each axis is at
    most *radio_range* < ``2**e``, so, rounding being monotone, its exact
    separation is below ``2**e``; scaling by a power of two is exact, so
    the pair sits in the same or touching cells.  Every candidate then
    meets the predicate.
    """
    n = coords.shape[0]
    with np.errstate(over="ignore"):  # far-out points clip to the outermost cells
        cx, cy = _cell_keys(np.ldexp(coords, -math.frexp(radio_range)[1]))
    width = int(cy.max()) + 3
    key = cx * width + cy + 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[first, n])
    cells = key[first]
    owner = np.repeat(np.arange(first.size), count)
    position = np.arange(n)
    # Scan tasks over sorted positions: position p meets the `length`
    # positions from `start` on.  In its own cell p meets the members after
    # it; in a forward neighbour, every member.
    rows, starts, lengths = [position], [position + 1], [(first + count)[owner] - position - 1]
    for step in (1, width - 1, width, width + 1):  # (dx, dy) = (0, 1), (1, -1), (1, 0), (1, 1)
        target = np.minimum(np.searchsorted(cells, cells + step), cells.size - 1)
        hit = (cells[target] == cells + step)[owner]
        rows.append(position[hit])
        starts.append(first[target][owner][hit])
        lengths.append(count[target][owner][hit])
    rows, starts, lengths = (np.concatenate(parts) for parts in (rows, starts, lengths))
    ends = np.cumsum(lengths)
    found_i, found_j = [], []
    a = 0
    while a < lengths.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - lengths[a] + _BLOCK, side="right")))
        length = lengths[a:b]
        p = np.repeat(rows[a:b], length)
        q = np.repeat(starts[a:b] - (np.cumsum(length) - length), length) + np.arange(p.size)
        u, v = order[p], order[q]
        i, j = np.minimum(u, v), np.maximum(u, v)
        deltas = coords[j] - coords[i]
        near = np.hypot(deltas[:, 0], deltas[:, 1]) <= radio_range
        found_i.append(i[near])
        found_j.append(j[near])
        a = b
    return np.concatenate(found_i), np.concatenate(found_j)


def _grouped_order(
    coords: np.ndarray, radio_range: float, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Permutation putting the pairs ``(i, j)`` in spatial-hash order.

    The order is described in :func:`_range_pairs`; its cells are
    ``floor(coords / radio_range)``, as the spatial hash always keyed them.
    """
    with np.errstate(over="ignore"):
        kx, ky = _cell_keys(coords / radio_range)
    _, seen, cell = np.unique(
        kx * (int(ky.max()) + 1) + ky, return_index=True, return_inverse=True
    )
    visit = np.empty(kx.size, dtype=np.int64)
    visit[np.argsort(seen[cell.reshape(-1)], kind="stable")] = np.arange(kx.size)
    dx, dy = kx[j] - kx[i], ky[j] - ky[i]
    block = np.where((np.abs(dx) <= 1) & (np.abs(dy) <= 1), 3 * dx + dy + 4, 9)
    return np.lexsort((j, block, visit[i]))


def _cell_keys(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis integer keys of the unit cells holding the *scaled* points.

    The keys are ``floor(scaled)`` with every run of empty columns (rows)
    shrunk to one: touching cells still touch, no others come to touch,
    and the keys stay below 2n however wide the coordinates spread, so a
    combined key cannot overflow.
    """
    floors = np.clip(np.floor(scaled), -(2.0**61), 2.0**61).astype(np.int64)
    keys = []
    for axis in (0, 1):
        values, inverse = np.unique(floors[:, axis], return_inverse=True)
        steps = np.minimum(np.diff(values), 2)
        keys.append(np.concatenate(([0], np.cumsum(steps)))[inverse.reshape(-1)])
    return keys[0], keys[1]


def _stitch_components_grid(graph: nx.Graph, coords: np.ndarray) -> None:
    """Scalable variant of :func:`_stitch_components` for large n.

    At the paper's target degree (~4) a geometric graph sits *below* the
    continuum-percolation threshold (mean degree ≈ 4.51), so there is no
    giant component: a 10⁵-node graph fragments into thousands of
    components, some with thousands of members, and the legacy
    round-by-round core×rest distance matrix is hopeless.  Instead this
    builds a minimum spanning tree over component *centroids*
    (:func:`_centroid_tree`) and realizes each tree edge, in Prim order,
    as the closest actual node pair between the two components — one
    stitch edge per tree edge, connected by construction in a single pass.

    Deterministic: components are indexed largest-first (ties on smallest
    member id), centroids average members in ascending id order, Prim
    starts from component 0 and breaks distance ties on the lowest
    component index, and closest-pair ties resolve row-major over the
    ascending member-id matrix.
    """
    by_size = sorted(nx.connected_components(graph), key=lambda comp: (-len(comp), min(comp)))
    if len(by_size) <= 1:
        return
    members = [np.asarray(sorted(comp), dtype=np.int64) for comp in by_size]
    # The sets hold every node again: free them before the tree's candidate
    # pairs are built (at 10⁶ nodes, peak RSS 1,010 MB with them, 967 without).
    del by_size
    centroids = np.asarray([coords[m].mean(axis=0) for m in members])
    for source, target in _centroid_tree(centroids):
        # Realize the tree edge as the closest cross-component node pair.
        # Chunked over the first component so two large components never
        # materialize a giant |A|×|B| matrix; strict < keeps the row-major
        # tie-break across chunks.
        ma, mb = members[source], members[target]
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


def _centroid_tree(centroids: np.ndarray) -> list[tuple[int, int]]:
    """The edges ``(from, to)`` of a minimum spanning tree, in Prim order.

    The result is the dense Prim's over the complete graph of *centroids*,
    ties included: start from centroid 0; each step adds the outside
    centroid with the least ``(distance to the tree, index)``, joined to
    the first tree centroid, in insertion order, at that distance.  It is
    computed by :func:`_radius_prim` over only the pairs within a radius,
    which is started at about 2 ln C expected neighbours of a uniform
    point in the centroids' bounding box and grown by √2 until the run
    reaches every centroid.  A radius at the box diagonal links every pair,
    so the loop ends.
    """
    count = centroids.shape[0]
    width, height = (centroids.max(axis=0) - centroids.min(axis=0)).tolist()
    diagonal = math.hypot(width, height)
    # A uniform point in the box expects (C - 1) π r² / area neighbours.
    radius = math.sqrt(2.0 * math.log(count) * width * height / (math.pi * (count - 1)))
    if not 0.0 < radius < diagonal:  # a flat box, or an area past the float range
        radius = diagonal
    while (tree := _radius_prim(centroids, radius)) is None:
        radius *= math.sqrt(2.0)
    return tree


def _radius_prim(centroids: np.ndarray, radius: float) -> list[tuple[int, int]] | None:
    """:func:`_centroid_tree` over the pairs within *radius*, or ``None``.

    While some pair within *radius* leaves the tree, the complete graph's
    cheapest leaving edge weighs at most *radius*, so it and every edge
    that ties it are among the pairs, and the run picks what the dense
    Prim picks: tree centroids relax their neighbours in insertion order
    with a strict ``<``, the heap is keyed on ``(distance, index)``, and
    each distance is ``np.hypot`` of the difference the dense Prim takes,
    up to sign.  Returns ``None`` when no pair leaves the tree before it
    spans every centroid.  The pairs stay in arrays (CSR rows), so the
    candidate graph costs a few dozen bytes per pair.
    """
    count = centroids.shape[0]
    first, second = _cell_join(centroids, radius)
    xs, ys = centroids[:, 0], centroids[:, 1]
    weight = np.hypot(xs[second] - xs[first], ys[second] - ys[first])
    source = np.concatenate((first, second))
    order = np.argsort(source, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(source, minlength=count)))).tolist()
    del source
    neighbour = np.concatenate((second, first)).astype(np.int32)[order]
    del first, second
    weight = np.concatenate((weight, weight))[order]
    del order

    in_tree = bytearray(count)
    best = [math.inf] * count
    best_from = [0] * count
    heap: list[tuple[float, int]] = []
    tree = []
    current = 0
    in_tree[0] = True
    for _ in range(count - 1):
        lo, hi = bounds[current], bounds[current + 1]
        for node, dist in zip(neighbour[lo:hi].tolist(), weight[lo:hi].tolist()):
            if dist < best[node] and not in_tree[node]:
                best[node] = dist
                best_from[node] = current
                heapq.heappush(heap, (dist, node))
        while heap:
            current = heapq.heappop(heap)[1]
            if not in_tree[current]:
                break
        else:
            return None
        in_tree[current] = True
        tree.append((best_from[current], current))
    return tree


def _stitch_components(graph: nx.Graph, coords: np.ndarray, ids: Sequence[Hashable]) -> None:
    """Connect the components by joining each to the largest, nearest first.

    The core is the largest component (on a size tie, the first in
    ``nx.connected_components`` order).  Each join links the core to the
    outside node closest to it and absorbs that node's component.  A tie
    at the minimum distance goes to the core node first in *ids*, then to
    the outside node first in *ids*.  Components are found once: each
    outside node keeps its distance to the nearest core node, and after a
    join only the newly absorbed members are measured against the nodes
    still outside, in blocks of about :data:`_BLOCK` distances.
    """
    components = list(nx.connected_components(graph))
    if len(components) <= 1:
        return
    index_of = {node: k for k, node in enumerate(ids)}
    label = np.empty(len(ids), dtype=np.int64)
    for c, members in enumerate(components):
        label[[index_of[node] for node in members]] = c
    core = label == np.argmax(np.bincount(label))
    joined, outside = np.flatnonzero(core), np.flatnonzero(~core)
    best = np.full(outside.size, np.inf)
    nearest = np.full(outside.size, len(ids))  # past every index: loses any tie
    xs, ys = coords[:, 0].copy(), coords[:, 1].copy()
    while outside.size:
        # One row per outside node, one column per newly joined node.
        out_x, out_y = xs[outside][:, None], ys[outside][:, None]
        rows = np.arange(outside.size)
        width = max(1, _BLOCK // outside.size)
        for start in range(0, joined.size, width):
            block = joined[start : start + width]
            dists = np.hypot(xs[block] - out_x, ys[block] - out_y)
            column = dists.argmin(axis=1)
            dist, node = dists[rows, column], block[column]
            closer = (dist < best) | ((dist == best) & (node < nearest))
            best[closer], nearest[closer] = dist[closer], node[closer]
        tied = np.flatnonzero(best == best.min())
        k = tied[np.argmin(nearest[tied])]
        graph.add_edge(ids[nearest[k]], ids[outside[k]])
        absorbed = label[outside] == label[outside[k]]
        joined = outside[absorbed]
        outside, best, nearest = outside[~absorbed], best[~absorbed], nearest[~absorbed]
