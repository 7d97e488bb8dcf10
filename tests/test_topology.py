"""Tests for topologies and bounding boxes."""

import ast
import math
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scatter_topology_rejects_non_finite_positions(bad):
    points = {"a": (0.0, 0.0), "b": (bad, 1.0), "c": (2.0, 0.0)}
    with pytest.raises(ValueError, match=r"position of node 'b' must be finite, got \("):
        scatter_topology(points, radio_range=1.5)


def test_average_degree():
    topology = grid_topology(2, 2)
    assert topology.average_degree() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# range edges and component stitching
# ----------------------------------------------------------------------
def _predicate_pairs(coords, radio_range):
    """The O(n²) loop's pairs: every i < j with np.hypot(dx, dy) <= radio_range."""
    pairs = set()
    for i in range(len(coords)):
        deltas = coords[i + 1 :] - coords[i]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        pairs.update((i, i + 1 + int(k)) for k in np.nonzero(dists <= radio_range)[0])
    return pairs


@st.composite
def _range_inputs(draw):
    """Uniform points, or lattice points a multiple of the range apart nudged
    by up to one ulp, whose rounded separations land exactly on the range."""
    radio = draw(st.sampled_from([1.0, 0.1, 0.3, 2.5, 1e-3, 7.0]))
    if draw(st.booleans()):
        n, seed = draw(st.integers(2, 600)), draw(st.integers(0, 2**32 - 1))
        side = math.sqrt(n / 0.8)
        coords = np.random.default_rng(seed).uniform(0.0, side, size=(n, 2))
        return coords, side * math.sqrt(4.0 / (math.pi * (n - 1)))
    cells = st.integers(-4, 4).map(float)
    nudge = st.sampled_from([-1, 0, 1])
    points = draw(st.lists(st.tuples(cells, nudge, cells, nudge), min_size=2, max_size=40))
    coords = []
    for kx, ux, ky, uy in points:
        x, y = kx * radio, ky * radio
        coords.append((np.nextafter(x, x + ux) if ux else x, np.nextafter(y, y + uy) if uy else y))
    return np.asarray(coords), radio


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_range_inputs())
@example((np.asarray([[0.9999999999999999, 0.0], [2.0, 0.0]]), 1.0))
def test_both_edge_orders_find_every_pair_in_range(case):
    """Both insertion orders link exactly the pairs the range predicate
    accepts, also pairs two range-sized cells apart once rounded."""
    from repro.geometry.topology import _range_pairs

    coords, radio_range = case
    expected = sorted(_predicate_pairs(coords, radio_range))
    first, second = _range_pairs(coords, radio_range)
    assert list(zip(first.tolist(), second.tolist())) == expected
    first, second = _range_pairs(coords, radio_range, grouped=True)
    assert sorted(zip(first.tolist(), second.tolist())) == expected


_LATTICE = """
from repro.geometry import scatter_topology
points = {f"s{r}-{c}": (float(c), float(r)) for r in range(6) for c in range(6)}
topology = scatter_topology(points, radio_range=0.5)
print(repr([(node, list(nbrs)) for node, nbrs in topology.graph.adj.items()]))
print(repr(list(topology.graph.edges)))
"""


def test_stitch_ties_do_not_depend_on_hash_seed():
    """36 lattice points 1 apart with range 0.5: every stitch round is a tie
    at distance 1, broken by id order, never by set iteration order."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _LATTICE], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    edges = ast.literal_eval(outputs[0].splitlines()[1])
    # The core node first in id order always wins, so each node in turn
    # links the node to its right (row 0 only) and the node below it.
    expected = []
    for r in range(6):
        for c in range(6):
            if r == 0 and c < 5:
                expected.append((f"s0-{c}", f"s0-{c + 1}"))
            if r < 5:
                expected.append((f"s{r}-{c}", f"s{r + 1}-{c}"))
    assert edges == expected


_SCIPY_MODULES = """
import sys
from repro.datasets.death_valley import generate_death_valley_dataset
from repro.geometry import random_geometric_topology
random_geometric_topology(5_000, seed=3)
generate_death_valley_dataset(seed=11, num_sensors=2_500)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_generation_does_not_import_scipy():
    """scipy is no dependency, and importing it adds ~29 MB of RSS: both
    stitchers (centroid MST above the threshold, Death Valley's scatter
    below it) run without it."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# spatial-hash fast path (n >= SPATIAL_HASH_MIN_N)
# ----------------------------------------------------------------------
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
