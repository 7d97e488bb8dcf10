"""Tests for topologies and bounding boxes."""

import networkx as nx
import numpy as np
import pytest

from repro.geometry import (
    BoundingBox,
    Topology,
    grid_topology,
    random_geometric_topology,
    scatter_topology,
)


def test_grid_shape_and_edges():
    topology = grid_topology(3, 4)
    assert topology.num_nodes == 12
    # 3 rows x 4 cols grid: 3*3 horizontal + 2*4 vertical edges
    assert topology.graph.number_of_edges() == 3 * 3 + 2 * 4
    assert topology.is_connected()


def test_grid_positions_match_indices():
    topology = grid_topology(2, 3, spacing=2.0)
    assert topology.positions[0] == (0.0, 0.0)
    assert topology.positions[5] == (4.0, 2.0)  # row 1, col 2


def test_grid_four_neighborhood():
    topology = grid_topology(3, 3)
    center = 4
    assert sorted(topology.graph.neighbors(center)) == [1, 3, 5, 7]


def test_grid_validation():
    with pytest.raises(ValueError):
        grid_topology(0, 3)
    with pytest.raises(ValueError):
        grid_topology(3, 3, spacing=-1.0)


def test_single_node_grid():
    topology = grid_topology(1, 1)
    assert topology.num_nodes == 1
    assert topology.bounds.width == 1.0  # degenerate box inflated


def test_random_geometric_connected_by_default():
    for seed in range(5):
        topology = random_geometric_topology(60, seed=seed)
        assert topology.is_connected()
        assert topology.num_nodes == 60


def test_random_geometric_target_degree_approximate():
    topology = random_geometric_topology(400, seed=1, target_degree=4.0)
    # Stitching adds a few edges; allow a generous band around 4.
    assert 2.5 <= topology.average_degree() <= 6.5


def test_random_geometric_deterministic_per_seed():
    a = random_geometric_topology(50, seed=9)
    b = random_geometric_topology(50, seed=9)
    assert a.positions == b.positions
    assert set(a.graph.edges) == set(b.graph.edges)


def test_random_geometric_unconnected_option():
    topology = random_geometric_topology(100, seed=2, radio_range=0.1, connect=False)
    assert not nx.is_connected(topology.graph)


def test_scatter_topology_edges_within_range():
    points = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (5.0, 0.0)}
    topology = scatter_topology(points, radio_range=1.5, connect=False)
    assert topology.graph.has_edge("a", "b")
    assert not topology.graph.has_edge("b", "c")


def test_scatter_topology_stitches_components():
    points = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (5.0, 0.0)}
    topology = scatter_topology(points, radio_range=1.5, connect=True)
    assert topology.is_connected()


def test_scatter_topology_empty_rejected():
    with pytest.raises(ValueError):
        scatter_topology({}, radio_range=1.0)


def test_bounds_are_square_and_contain_all_nodes():
    topology = random_geometric_topology(40, seed=3)
    bounds = topology.bounds
    assert bounds.width == pytest.approx(bounds.height)
    for x, y in topology.positions.values():
        assert bounds.contains(x, y)


def test_bounding_box_center():
    box = BoundingBox(0.0, 0.0, 4.0, 2.0)
    assert box.center == (2.0, 1.0)
    assert box.contains(2.0, 1.0)
    assert not box.contains(5.0, 1.0)


def test_topology_requires_positions_for_all_nodes():
    graph = nx.path_graph(3)
    with pytest.raises(ValueError, match="positions missing"):
        Topology(graph, {0: (0.0, 0.0), 1: (1.0, 0.0)})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_topology_rejects_non_finite_positions(bad):
    graph = nx.path_graph(3)
    positions = {0: (0.0, 0.0), 1: (1.0, bad), 2: (2.0, 0.0)}
    with pytest.raises(ValueError, match=r"position of node 1 must be finite, got \(1\.0, "):
        Topology(graph, positions)


def test_average_degree():
    topology = grid_topology(2, 2)
    assert topology.average_degree() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# spatial-hash fast path (n >= SPATIAL_HASH_MIN_N)
# ----------------------------------------------------------------------
def test_grid_edges_match_quadratic_path():
    """The cell grid must produce the identical edge set as the O(n²) loop
    on the same coordinates (the range predicate is shared)."""
    import math

    from repro.geometry.topology import _range_edges_grid

    n, seed = 600, 17
    rng = np.random.default_rng(seed)
    side = math.sqrt(n / 0.8)
    coords = rng.uniform(0.0, side, size=(n, 2))
    radio_range = side * math.sqrt(4.0 / (math.pi * (n - 1)))

    quadratic = nx.Graph()
    quadratic.add_nodes_from(range(n))
    for i in range(n):
        deltas = coords[i + 1 :] - coords[i]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        for offset in np.nonzero(dists <= radio_range)[0]:
            quadratic.add_edge(i, i + 1 + int(offset))

    gridded = nx.Graph()
    gridded.add_nodes_from(range(n))
    _range_edges_grid(gridded, coords, radio_range)

    assert set(map(frozenset, quadratic.edges)) == set(map(frozenset, gridded.edges))


def test_fast_path_topology_connected_and_deterministic():
    from repro.geometry.topology import SPATIAL_HASH_MIN_N

    n = SPATIAL_HASH_MIN_N  # smallest size that takes the fast path
    first = random_geometric_topology(n, seed=5)
    second = random_geometric_topology(n, seed=5)
    assert first.is_connected()
    assert first.num_nodes == n
    assert list(first.graph.edges) == list(second.graph.edges)
    # degree stays at the paper's target despite the different stitcher
    assert 3.0 < first.average_degree() < 5.0


def test_centroid_mst_stitcher_connects_fragments():
    from repro.geometry.topology import _stitch_components_grid

    graph = nx.Graph()
    graph.add_nodes_from(range(9))
    # three triangles, far apart
    coords = []
    for cluster, origin in enumerate([(0.0, 0.0), (10.0, 0.0), (5.0, 12.0)]):
        base = cluster * 3
        graph.add_edges_from([(base, base + 1), (base + 1, base + 2), (base, base + 2)])
        for k in range(3):
            coords.append((origin[0] + 0.1 * k, origin[1] + 0.05 * k))
    coords = np.asarray(coords)
    _stitch_components_grid(graph, coords)
    assert nx.is_connected(graph)
    # exactly one stitch edge per MST edge over 3 components
    assert graph.number_of_edges() == 9 + 2
