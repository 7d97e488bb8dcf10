"""Tests for the quadtree decomposition and sentinel sets (paper §3.2)."""

import functools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.elink_vec as elink_vec
from repro.core import ELinkConfig, run_elink
from repro.core.elink import compute_kappa
from repro.datasets.death_valley import generate_death_valley_dataset
from repro.features import EuclideanMetric
from repro.geometry import (
    QuadTreeDecomposition,
    Topology,
    grid_topology,
    random_geometric_topology,
)
from repro.index import build_backbone, build_mtree
from repro.io import topology_from_dict, topology_to_dict
from repro.sim import FaultInjector, FaultPlan, Network
from tests import quadtree_oracle


def test_every_node_in_exactly_one_sentinel_set(small_grid):
    decomposition = QuadTreeDecomposition(small_grid)
    seen = [s for level in decomposition.sentinel_sets for s in level]
    assert sorted(seen) == sorted(small_grid.graph.nodes)
    assert len(seen) == len(set(seen))


def test_level_zero_has_single_sentinel(small_grid):
    decomposition = QuadTreeDecomposition(small_grid)
    assert len(decomposition.sentinel_sets[0]) == 1
    assert decomposition.root == decomposition.sentinel_sets[0][0]


def test_sentinel_set_growth_bounded_by_powers_of_four(small_grid):
    decomposition = QuadTreeDecomposition(small_grid)
    for level, sentinels in enumerate(decomposition.sentinel_sets):
        assert len(sentinels) <= 4**level


def test_root_sentinel_is_closest_to_center(small_grid):
    decomposition = QuadTreeDecomposition(small_grid)
    root = decomposition.root
    cx, cy = small_grid.bounds.center
    root_pos = small_grid.positions[root]
    best = min(
        (small_grid.positions[v][0] - cx) ** 2 + (small_grid.positions[v][1] - cy) ** 2
        for v in small_grid.graph.nodes
    )
    assert (root_pos[0] - cx) ** 2 + (root_pos[1] - cy) ** 2 == pytest.approx(best)


def test_quad_parent_is_exactly_one_level_up(random_topology):
    decomposition = QuadTreeDecomposition(random_topology)
    for level, sentinel in decomposition.iter_sentinels():
        parent = decomposition.quad_parent[sentinel]
        if level == 0:
            assert parent == sentinel
        else:
            assert decomposition.level_of[parent] == level - 1


def test_quad_children_consistent_with_parents(random_topology):
    decomposition = QuadTreeDecomposition(random_topology)
    for parent, children in decomposition.quad_children.items():
        for child in children:
            assert decomposition.quad_parent[child] == parent


def test_depth_close_to_grid_bound():
    topology = grid_topology(16, 16)  # 256 nodes, perfect power of 4
    decomposition = QuadTreeDecomposition(topology)
    bound = decomposition.expected_depth_bound()
    # Footnote 2: depth <= bound + small constant for non-ideal layouts.
    assert decomposition.depth <= math.ceil(bound) + 3


def test_level_of_matches_sentinel_sets(random_topology):
    decomposition = QuadTreeDecomposition(random_topology)
    for level, sentinels in enumerate(decomposition.sentinel_sets):
        for sentinel in sentinels:
            assert decomposition.level_of[sentinel] == level


def test_deterministic_construction(random_topology):
    a = QuadTreeDecomposition(random_topology)
    b = QuadTreeDecomposition(random_topology)
    assert a.sentinel_sets == b.sentinel_sets
    assert a.quad_parent == b.quad_parent


def test_single_node_topology():
    topology = grid_topology(1, 1)
    decomposition = QuadTreeDecomposition(topology)
    assert decomposition.depth == 0
    assert decomposition.sentinel_sets == [[0]]
    assert decomposition.quad_parent[0] == 0


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10))
@settings(max_examples=25, deadline=None)
def test_partition_property_random_topologies(n, seed):
    topology = random_geometric_topology(n, seed=seed)
    decomposition = QuadTreeDecomposition(topology)
    seen = [s for level in decomposition.sentinel_sets for s in level]
    assert sorted(seen) == sorted(topology.graph.nodes)
    for level, sentinel in decomposition.iter_sentinels():
        parent = decomposition.quad_parent[sentinel]
        if level > 0:
            assert decomposition.level_of[parent] == level - 1


def test_coincident_points_hit_depth_cap_gracefully():
    graph = nx.complete_graph(5)
    positions = {i: (1.0, 1.0) for i in range(5)}  # all nodes co-located
    decomposition = QuadTreeDecomposition(Topology(graph, positions))
    seen = [s for level in decomposition.sentinel_sets for s in level]
    assert sorted(seen) == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# the columnar build (the fast one) vs the per-cell reference build kept
# in tests/quadtree_oracle.py
# ----------------------------------------------------------------------
def assert_same_quadtree(new, old):
    """Maps (with insertion order), subtree levels and takeover orders of
    *new* equal the oracle build *old*'s exactly, and *new*'s per-level
    position arrays map back to its sentinel sets and their parents."""
    assert new.nodes == list(old.topology.graph.nodes)
    assert len(new.level_rows) == len(new.parent_rows) == len(old.sentinel_sets)
    for rows, parents, sentinels in zip(new.level_rows, new.parent_rows, old.sentinel_sets):
        assert rows.dtype == parents.dtype == np.int64
        assert [new.nodes[i] for i in rows.tolist()] == sentinels
        assert [new.nodes[i] for i in parents.tolist()] == [old.quad_parent[v] for v in sentinels]
    assert new.sentinel_sets == old.sentinel_sets
    assert list(new.level_of.items()) == list(old.level_of.items())
    assert list(new.quad_parent.items()) == list(old.quad_parent.items())
    assert list(new.quad_children.items()) == list(old.quad_children.items())
    assert new.root == old.root
    assert new.depth == old.depth
    assert list(new.subtree_max_levels().items()) == list(
        quadtree_oracle.subtree_max_levels(old).items()
    )
    assert list(new.takeover_orders().items()) == list(
        quadtree_oracle.takeover_orders(old).items()
    )


def assert_matches_oracle(topology):
    new = QuadTreeDecomposition(topology)
    assert_same_quadtree(new, quadtree_oracle.QuadTreeDecomposition(topology))
    return new


def _co_located(n):
    return Topology(nx.complete_graph(n), {i: (1.0, 1.0) for i in range(n)})


def _abcd():
    graph = nx.relabel_nodes(nx.path_graph(4), dict(enumerate("abcd")))
    return Topology(graph, {v: (float(i), 0.0) for i, v in enumerate("abcd")})


_BASES = {
    "grid1x1": lambda: grid_topology(1, 1),
    "grid6": lambda: grid_topology(6, 6),
    "grid6x9": lambda: grid_topology(6, 9),
    "grid16": lambda: grid_topology(16, 16),
    "grid17x9": lambda: grid_topology(17, 9),
    "geom80": lambda: random_geometric_topology(80, seed=3),
    "geom300": lambda: random_geometric_topology(300, seed=3),
    "geom1000": lambda: random_geometric_topology(1000, seed=3),
    "death_valley600": lambda: generate_death_valley_dataset(num_sensors=600).topology,
    "abcd": _abcd,
    # 40 co-located nodes drive subdivision to MAX_DEPTH and the flush.
    "depth_cap40": lambda: _co_located(40),
}


@functools.lru_cache(maxsize=None)
def _base(name):
    return _BASES[name]()


def _relabel(topology, mapping):
    """*topology* with node ids renamed; graph order is kept."""
    graph = nx.relabel_nodes(topology.graph, mapping)
    positions = {mapping[v]: p for v, p in topology.positions.items()}
    return Topology(graph, positions)


def _ids(topology, kind):
    nodes = list(topology.graph.nodes)
    if kind == "str":
        labels = [f"v{i}" for i in range(len(nodes))]
    elif kind == "tuple":
        labels = [(i % 3, -i) for i in range(len(nodes))]
    else:  # shuffled ints: a seeded permutation of 0..n-1
        labels = list(range(len(nodes)))
        random.Random(7).shuffle(labels)
    return dict(zip(nodes, labels))


@pytest.mark.parametrize("name", [name for name in _BASES if name != "depth_cap40"])
def test_fast_build_identical_to_reference(name):
    assert_matches_oracle(_base(name))


def test_fast_build_identical_at_depth_cap():
    decomposition = assert_matches_oracle(_base("depth_cap40"))
    assert decomposition.depth == QuadTreeDecomposition.MAX_DEPTH


@pytest.mark.parametrize("ids", ["str", "tuple", "shuffled"])
@pytest.mark.parametrize("name", list(_BASES))
def test_relabelled_build_identical_to_reference(name, ids):
    topology = _base(name)
    assert_matches_oracle(_relabel(topology, _ids(topology, ids)))


def test_round_tripped_topology_matches_oracle():
    # topology_from_dict rebuilds the graph with its nodes in repr order.
    topology = topology_from_dict(topology_to_dict(_base("geom300")))
    assert list(topology.graph.nodes) == sorted(topology.graph.nodes, key=repr)
    assert list(topology.graph.nodes) != sorted(topology.graph.nodes)
    assert_matches_oracle(topology)


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(["str", "tuple", "shuffled"]),
)
@settings(max_examples=30, deadline=None)
def test_property_matches_oracle_under_relabelling(n, seed, ids):
    topology = random_geometric_topology(n, seed=seed)
    assert_matches_oracle(_relabel(topology, _ids(topology, ids)))


def test_derived_orders_are_fresh_dicts(small_grid):
    decomposition = QuadTreeDecomposition(small_grid)
    subtree = decomposition.subtree_max_levels()
    subtree[decomposition.root] = -1
    assert decomposition.subtree_max_levels()[decomposition.root] == decomposition.depth
    assert decomposition.takeover_orders() is not decomposition.takeover_orders()


def test_empty_topology_rejected():
    with pytest.raises(ValueError, match="empty topology"):
        QuadTreeDecomposition(Topology(nx.Graph(), {}))


def _snapshot(decomposition):
    return (
        [list(level) for level in decomposition.sentinel_sets],
        list(decomposition.level_of.items()),
        list(decomposition.quad_parent.items()),
        [(node, list(children)) for node, children in decomposition.quad_children.items()],
        list(decomposition.subtree_max_levels().items()),
        list(decomposition.takeover_orders().items()),
    )


def test_sentinel_takeover_leaves_quadtree_unchanged():
    # The chaos-trace scenario (tools/make_chaos_trace.py): an 8x8 grid,
    # explicit signalling with failure detection, and a mid-level sentinel
    # crash that forces a cell takeover, run twice on one quadtree.
    topology = grid_topology(8, 8)
    features = {v: np.array([(x + y) / 10.0]) for v, (x, y) in topology.positions.items()}
    config = ELinkConfig(delta=1.0, signalling="explicit", failure_detection=True)
    kappa = compute_kappa(topology.num_nodes, config.gamma)
    quadtree = QuadTreeDecomposition(topology)
    sentinels = sorted(
        (v for level in quadtree.sentinel_sets[1:] for v in level if v != quadtree.root),
        key=repr,
    )
    leaves = sorted(
        (v for v in topology.graph.nodes if quadtree.level_of[v] == quadtree.depth), key=repr
    )
    before = _snapshot(quadtree)
    results = []
    for _ in range(2):
        graph = topology.graph.copy()
        plan = FaultPlan()
        plan.crash(0.40 * kappa, sentinels[len(sentinels) // 2])
        plan.crash(0.15 * kappa, leaves[len(leaves) // 3])
        network = Network(graph)
        result = run_elink(
            Topology(graph, dict(topology.positions)), features, EuclideanMetric(), config,
            quadtree=quadtree, network=network, injector=FaultInjector(network, plan),
        )
        assert result.stats.packets_by_kind["takeover"] >= 1
        results.append(result)
    first, second = results
    assert list(first.clustering.assignment.items()) == list(second.clustering.assignment.items())
    assert list(first.clustering.parent.items()) == list(second.clustering.parent.items())
    assert first.stats == second.stats
    assert _snapshot(quadtree) == before


# ----------------------------------------------------------------------
# the id-keyed maps are built on first read
# ----------------------------------------------------------------------
_MAPS = ("level_of", "quad_parent", "quad_children")


def test_implicit_batch_run_and_index_build_leave_maps_unbuilt(monkeypatch):
    topology = random_geometric_topology(2_000, seed=3)
    features = {v: np.array([0.02 * (x + y)]) for v, (x, y) in topology.positions.items()}
    metric = EuclideanMetric()
    quadtree = QuadTreeDecomposition(topology)
    engaged = []
    real = elink_vec.try_run_vectorized

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        engaged.append(out is not None)
        return out

    monkeypatch.setattr(elink_vec, "try_run_vectorized", spy)
    result = run_elink(
        topology, features, metric, ELinkConfig(delta=0.3),
        quadtree=quadtree, network=Network(topology.graph),
    )
    build_mtree(result.clustering, features, metric)
    build_backbone(topology.graph, result.clustering)
    assert engaged == [True]
    assert result.num_clusters > 1
    assert [name for name in _MAPS if name in quadtree.__dict__] == []
    # A first read builds each map once, with the oracle's contents.
    oracle = quadtree_oracle.QuadTreeDecomposition(topology)
    assert list(quadtree.level_of.items()) == list(oracle.level_of.items())
    assert quadtree.__dict__["level_of"] is quadtree.level_of


def test_explicit_handler_run_with_failure_detection_builds_the_maps():
    topology = grid_topology(9, 7)
    features = {v: np.array([(x + 2 * y) / 10.0]) for v, (x, y) in topology.positions.items()}
    quadtree = QuadTreeDecomposition(topology)
    assert [name for name in _MAPS if name in quadtree.__dict__] == []
    config = ELinkConfig(delta=1.0, signalling="explicit", failure_detection=True)
    run_elink(topology, features, EuclideanMetric(), config, quadtree=quadtree)
    assert [name for name in _MAPS if name in quadtree.__dict__] == list(_MAPS)
    oracle = quadtree_oracle.QuadTreeDecomposition(topology)
    for name in _MAPS:
        assert list(quadtree.__dict__[name].items()) == list(getattr(oracle, name).items())
