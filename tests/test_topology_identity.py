"""Topology generation equals the pairwise formulation it replaced.

``tests/topology_oracle.py`` keeps the original generators: O(n²) range
loops, the per-member spatial hash, the round-by-round stitch and the
centroid-MST stitch with its dense O(C²) Prim.  Every case here checks
that the cell join, the incremental stitch and the radius-graph Prim
reproduce their graphs exactly: node order and every neighbour order,
which ELink's BFS tie-breaks read.  A property over lattices, collinear
and coincident centroids certifies that the radius-graph Prim adds the
dense Prim's tree edges in its order, ties included.

The stitch breaks an exact tie at a round's minimum distance by ``ids``
order, where the oracle used set iteration order.  So the graphs can
differ only on an input with such a tie; ``tied_rounds`` counts the
rounds that may have had one, and every pinned input has none.

The CSR arrays the batch engine, the clustering assembly and the
backbone read (``adjacency_arrays``) must equal the per-edge loop
``Network`` once ran (``topology_oracle.adjacency_arrays``), on generated
graphs, on any graph, and on graphs a network has crashed and restored
nodes and links of.  One graph state is read once: a second call returns
the same read-only arrays, every networkx mutation makes the next call
read the graph again, and a subgraph view is never kept.
"""

import hashlib
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import death_valley
from repro.geometry import grid_topology, random_geometric_topology, scatter_topology
from repro.geometry.topology import SPATIAL_HASH_MIN_N, _centroid_tree, adjacency_arrays
from repro.sim import Network
from tests import topology_oracle
from tests.test_topology import _predicate_pairs


def adjacency(graph):
    """Node order and every neighbour order of *graph*."""
    return [(node, list(nbrs)) for node, nbrs in graph.adj.items()]


def digest(graph):
    """sha256 of :func:`adjacency`, for graphs too slow to rebuild by the oracle."""
    return hashlib.sha256(repr(adjacency(graph)).encode()).hexdigest()


def default_range(n):
    """The radio range ``random_geometric_topology(n, ...)`` picks by default."""
    side = math.sqrt(n / 0.8)
    return side * math.sqrt(4.0 / (math.pi * max(n - 1, 1)))


def tied_rounds(topology, radio_range):
    """Stitch rounds that may have met a tie at their minimum distance.

    Stitch edges are the edges longer than *radio_range*.  A round is tied
    when two core-outside pairs share its minimum, so a stitch edge whose
    length no other node pair shares comes from an untied round.  This
    counts the others, over every pair of nodes.
    """
    nodes = list(topology.graph)
    coords = np.asarray([topology.positions[node] for node in nodes])
    index = {node: k for k, node in enumerate(nodes)}
    lengths = []
    for a, b in topology.graph.edges:
        delta = coords[index[b]] - coords[index[a]]
        length = np.hypot(delta[0], delta[1])
        if length > radio_range:
            lengths.append(length)
    if not lengths:
        return 0
    lengths = np.sort(np.asarray(lengths))
    pairs = np.zeros(lengths.size, dtype=np.int64)
    xs, ys = coords[:, 0], coords[:, 1]
    for a in range(len(nodes) - 1):
        dists = np.hypot(xs[a + 1 :] - xs[a], ys[a + 1 :] - ys[a])
        slot = np.minimum(np.searchsorted(lengths, dists), lengths.size - 1)
        pairs += np.bincount(slot[lengths[slot] == dists], minlength=lengths.size)
    return int(np.count_nonzero(pairs > 1))


def assert_matches_oracle(new, old, radio_range):
    assert adjacency(new.graph) == adjacency(old.graph)
    assert list(new.positions.items()) == list(old.positions.items())
    assert tied_rounds(new, radio_range) == 0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30, 60, 100, 300])
def test_random_geometric_matches_oracle(n, seed):
    new = random_geometric_topology(n, seed=seed)
    old = topology_oracle.random_geometric_topology(n, seed=seed)
    assert_matches_oracle(new, old, default_range(n))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_random_geometric_matches_oracle_at_1000(seed):
    new = random_geometric_topology(1000, seed=seed)
    old = topology_oracle.random_geometric_topology(1000, seed=seed)
    assert_matches_oracle(new, old, default_range(1000))


#: ``digest`` of the oracle's graph.  The oracle takes 6 s at N = 2,500 and
#: about 25 s at N = 4,095 on a 2-CPU host, so these were computed once
#: with ``topology_oracle.random_geometric_topology``; CI's scale job
#: rebuilds the (4095, 3) graph with the oracle and checks it against this
#: table.
ORACLE_DIGESTS = {
    (2500, 0): "3520c62c580a47ce6f8b17bd0443f878ed0bd473e613345013ae26f843851dc9",
    (2500, 3): "c98f2e15a729fdbd037e594e94e7a8e38074deb96690c111982f8ff10b43ea93",
    (2500, 7): "3aecc13eeea197ad1184573fd219beca64d2b76d2710d271317658fff3c25684",
    (4095, 3): "2eaa7479ca2efabaa73b1f1050a5839e6dc8d2638512af6840713db5bbabe793",
    (4095, 7): "ec48e61169fade67757e5c54a5e762c8c89ec4013122acdaf3533134ae83586b",
    (4095, 11): "a0d40c37df5a0a0f17c651eaf7836b6ef16edec71df073b0dd4c833eca733f3f",
}


@pytest.mark.parametrize(("n", "seed"), sorted(ORACLE_DIGESTS))
def test_random_geometric_matches_oracle_digest(n, seed):
    new = random_geometric_topology(n, seed=seed)
    assert digest(new.graph) == ORACLE_DIGESTS[(n, seed)]
    assert tied_rounds(new, default_range(n)) == 0


@pytest.mark.parametrize("n", [SPATIAL_HASH_MIN_N, 10_000, 40_000])
def test_cell_grouped_order_matches_oracle(n):
    new = random_geometric_topology(n, seed=3)
    old = topology_oracle.random_geometric_topology(n, seed=3)
    assert adjacency(new.graph) == adjacency(old.graph)


def _death_valley(monkeypatch, generate_topology, **kwargs):
    monkeypatch.setattr(death_valley, "scatter_topology", generate_topology)
    return death_valley.generate_death_valley_dataset(**kwargs).topology


def _death_valley_range(num_sensors):
    side = float(2**7)  # the terrain's side at the default exponent 7
    return side * math.sqrt(6.0 / (math.pi * (num_sensors - 1)))


@pytest.mark.parametrize(("num_sensors", "seed"), [(2500, s) for s in range(11, 16)] + [(5000, 11)])
def test_death_valley_matches_oracle(monkeypatch, num_sensors, seed):
    new = _death_valley(monkeypatch, scatter_topology, seed=seed, num_sensors=num_sensors)
    old = _death_valley(
        monkeypatch, topology_oracle.scatter_topology, seed=seed, num_sensors=num_sensors
    )
    assert_matches_oracle(new, old, _death_valley_range(num_sensors))


# ----------------------------------------------------------------------
# property: any point set
# ----------------------------------------------------------------------
@st.composite
def point_sets(draw):
    """Point sets with duplicates, lattices, wide spreads and any node ids."""
    n = draw(st.integers(1, 40))
    radio = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    kind = draw(st.sampled_from(["uniform", "lattice", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        coords = rng.uniform(0.0, draw(st.sampled_from([2.0, 10.0, 30.0])), size=(n, 2))
    elif kind == "lattice":
        coords = rng.integers(0, 6, size=(n, 2)).astype(np.float64) * draw(
            st.sampled_from([0.5, 1.0, 1.5])
        )
    else:
        coords = rng.uniform(-1e15, 1e15, size=(n, 2))
        coords[n // 2 :] = coords[: n - n // 2] + rng.uniform(-1.0, 1.0, size=(n - n // 2, 2))
    if draw(st.booleans()):  # duplicates
        coords[rng.integers(0, n, size=n // 3)] = coords[rng.integers(0, n, size=n // 3)]
    id_kind = draw(st.sampled_from(["int", "str", "tuple", "shuffled"]))
    if id_kind == "int":
        ids = list(range(n))
    elif id_kind == "str":
        ids = [f"s{k:02d}" for k in range(n)]
    elif id_kind == "tuple":
        ids = [(k % 3, f"t{k}") for k in range(n)]
    else:
        ids = [int(v) for v in rng.permutation(3 * n)[:n]]
    points = {node: (float(x), float(y)) for node, (x, y) in zip(ids, coords)}
    return points, radio, draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(point_sets())
def test_scatter_matches_predicate_and_oracle(case):
    """The range predicate's edges, plus C - 1 stitch edges joining the C
    components into one; the oracle's exact graph when no round is tied."""
    points, radio, connect = case
    ids = list(points)
    coords = np.asarray([points[node] for node in ids])
    new = scatter_topology(points, radio_range=radio, connect=connect)
    assert list(new.graph) == ids
    predicate = _predicate_pairs(coords, radio)
    index = {node: k for k, node in enumerate(ids)}
    edges = {tuple(sorted((index[a], index[b]))) for a, b in new.graph.edges}
    if not connect:
        assert edges == predicate
        return
    assert predicate <= edges
    before = nx.Graph()
    before.add_nodes_from(range(len(ids)))
    before.add_edges_from(predicate)
    assert nx.is_connected(new.graph)
    assert len(edges - predicate) == nx.number_connected_components(before) - 1
    if tied_rounds(new, radio) == 0:
        old = topology_oracle.scatter_topology(points, radio_range=radio, connect=connect)
        assert adjacency(new.graph) == adjacency(old.graph)


# ----------------------------------------------------------------------
# property: the centroid tree is the dense Prim's, ties included
# ----------------------------------------------------------------------
class _EdgeLog(nx.Graph):
    """A graph that records its ``add_edge`` calls in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def add_edge(self, u, v, **attr):
        self.log.append((u, v))
        super().add_edge(u, v, **attr)


def dense_prim(centroids):
    """The oracle's tree edges ``(from, to)`` over *centroids*, in order.

    One isolated node per centroid makes every component a singleton whose
    centroid is its point, so each stitch edge the oracle adds is one
    edge of its dense Prim.
    """
    graph = _EdgeLog()
    graph.add_nodes_from(range(len(centroids)))
    topology_oracle._stitch_components_grid(graph, centroids)
    return graph.log


@st.composite
def centroid_sets(draw):
    """2 to 150 centroids: uniform, lattices, collinear, coincident, ±1e15."""
    count = draw(st.integers(2, 150))
    kind = draw(st.sampled_from(["uniform", "lattice", "collinear", "coincident", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.uniform(0.0, draw(st.sampled_from([1.0, 100.0, 1e6])), size=(count, 2))
    if kind == "lattice":  # many equal distances, and duplicates
        side = draw(st.integers(1, 12))
        return rng.integers(0, side, size=(count, 2)) * draw(st.sampled_from([1.0, 0.5, 3.0]))
    if kind == "collinear":  # duplicates once the span is below the count
        steps = rng.integers(0, draw(st.integers(1, 2 * count)), size=count)
        direction = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -4.0)]))
        return np.outer(steps, direction) + rng.integers(-50, 50, size=2)
    if kind == "coincident":
        return np.tile(rng.uniform(-1e3, 1e3, size=2), (count, 1))
    coords = rng.uniform(-1e15, 1e15, size=(count, 2))
    half = count // 2
    coords[half:] = coords[: count - half] + rng.uniform(-1.0, 1.0, size=(count - half, 2))
    return coords


@settings(derandomize=True, deadline=None, max_examples=300)
@given(centroid_sets())
def test_centroid_tree_is_the_dense_prim(centroids):
    assert _centroid_tree(centroids) == dense_prim(centroids)


# ----------------------------------------------------------------------
# CSR arrays: adjacency_arrays is the per-edge loop
# ----------------------------------------------------------------------
def assert_same_arrays(graph):
    """``adjacency_arrays(graph)`` equals the oracle loop's arrays."""
    nodes, index, indptr, indices = adjacency_arrays(graph)
    old_nodes, old_index, old_indptr, old_indices = topology_oracle.adjacency_arrays(graph)
    assert nodes == old_nodes
    assert list(index.items()) == list(old_index.items())
    assert indptr.dtype == indices.dtype == np.int64
    assert np.array_equal(indptr, old_indptr)
    assert np.array_equal(indices, old_indices[: old_indptr[-1]])


@pytest.mark.parametrize(("rows", "cols"), [(1, 1), (1, 7), (6, 9), (30, 30)])
def test_adjacency_arrays_grid(rows, cols):
    assert_same_arrays(grid_topology(rows, cols).graph)


@pytest.mark.parametrize("n", [1, 2, 300, SPATIAL_HASH_MIN_N - 1, SPATIAL_HASH_MIN_N, 10_000])
def test_adjacency_arrays_random_geometric(n):
    assert_same_arrays(random_geometric_topology(n, seed=3).graph)


_NODE_IDS = st.one_of(
    st.integers(-100, 100),
    st.text(max_size=3),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)


@st.composite
def graphs(draw):
    """Int, str and tuple ids in any order, isolated nodes and self-loops."""
    ids = draw(st.lists(_NODE_IDS, min_size=1, max_size=30, unique=True))
    position = st.integers(0, len(ids) - 1)
    pairs = draw(st.lists(st.tuples(position, position), max_size=60))
    edges = [(ids[a], ids[b]) for a, b in pairs]
    if draw(st.booleans()):
        edges.append((ids[0], ids[0]))
    graph = nx.Graph()
    if draw(st.booleans()):  # nodes first, else in edge order, isolated ones last
        graph.add_nodes_from(ids)
    graph.add_edges_from(edges)
    graph.add_nodes_from(ids)
    return graph


@settings(derandomize=True, deadline=None, max_examples=100)
@given(graphs())
def test_adjacency_arrays_any_graph(graph):
    assert_same_arrays(graph)


_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["crash", "recover", "cut", "mend", "add_edge", "remove_node", "add_edges_from"]
        ),
        st.integers(0, 10**6),
    ),
    max_size=20,
)


def assert_one_build(graph):
    """Two calls return one tuple, equal to the oracle's, with read-only
    arrays; a subgraph view of *graph* is read afresh on every call."""
    arrays = adjacency_arrays(graph)
    assert adjacency_arrays(graph) is arrays
    assert_same_arrays(graph)
    _, _, indptr, indices = arrays
    for array in (indptr, indices):
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0
    view = graph.subgraph(list(graph)[::2])
    assert adjacency_arrays(view) is not adjacency_arrays(view)
    assert not view.__networkx_cache__
    assert_same_arrays(view)
    return arrays


@settings(derandomize=True, deadline=None, max_examples=100)
@given(graphs(), _MUTATIONS)
def test_adjacency_arrays_after_removals_and_readds(graph, operations):
    """After every crash, recovery, cut and mend through a network, which
    move re-added nodes and neighbours to the ends of their dicts, and
    after every raw networkx ``add_edge``, ``remove_node`` and
    ``add_edges_from``, the next call builds the arrays again, equal to
    the per-edge loop's, and the call after it returns the same ones."""
    network = Network(graph)
    saved, cut = {}, []
    arrays = assert_one_build(graph)
    for op, k in operations:
        nodes, edges = list(graph), list(graph.edges)
        changed = True
        if op == "crash" and len(nodes) > 1:
            node = nodes[k % len(nodes)]
            saved[node] = network.remove_node(node)
        elif op == "recover" and saved:
            node = list(saved)[k % len(saved)]
            network.restore_node(node, saved.pop(node))
        elif op == "cut" and edges:
            edge = edges[k % len(edges)]
            assert network.remove_edge(*edge)
            cut.append(edge)
        elif op == "mend" and cut:
            changed = network.restore_edge(*cut.pop(k % len(cut)))
        elif op == "add_edge":
            graph.add_edge(nodes[k % len(nodes)], nodes[k // len(nodes) % len(nodes)])
        elif op == "remove_node" and len(nodes) > 1:
            graph.remove_node(nodes[k % len(nodes)])
        elif op == "add_edges_from":
            graph.add_edges_from([(nodes[k % len(nodes)], ("new", k)), (("new", k), nodes[0])])
        else:
            changed = False
        assert (adjacency_arrays(graph) is arrays) is not changed
        arrays = assert_one_build(graph)
