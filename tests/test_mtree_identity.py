"""The M-tree build equals the per-node formulation it replaced.

``tests/mtree_oracle.py`` keeps the original build: a child list and a
child table for every node, a post-order walk from every root and one
``Message`` per tree edge.  Every case here checks that ``build_mtree``
reproduces it exactly: the key order of all four dicts, every node's
children and child table in order, the radii bit for bit, the routing
features as the very same objects, ``build_messages`` and the six stats
counters in order.
"""

import random
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELinkConfig, run_elink
from repro.core.delta import Clustering
from repro.datasets.synthetic import generate_synthetic_dataset
from repro.features import EuclideanMetric
from repro.geometry import random_geometric_topology
from repro.index import build_mtree
from tests import mtree_oracle, test_faults


def _field(topology, seed, tilt, dim):
    """*dim* noisy linear fields over the topology's positions, scaled to
    the unit square (a geometric topology's side grows with √n)."""
    rng = np.random.default_rng(seed)
    angles = [tilt + j for j in range(dim)]
    side = max(max(xy) for xy in topology.positions.values()) or 1.0
    return {
        node: np.array(
            [(np.cos(a) * x + np.sin(a) * y) / side + rng.normal(0, 0.02) for a in angles]
        )
        for node, (x, y) in topology.positions.items()
    }


def _clustered(n, seed, delta, *, tilt=0.5, dim=1, signalling="implicit"):
    """A random geometric topology, its features and their ELink clustering."""
    topology = random_geometric_topology(n, seed=seed)
    features = _field(topology, seed, tilt, dim)
    config = ELinkConfig(delta=delta, signalling=signalling)
    return topology, features, run_elink(topology, features, EuclideanMetric(), config).clustering


def _counters(stats):
    counters = (
        stats.packets_by_kind,
        stats.values_by_kind,
        stats.packets_by_category,
        stats.values_by_category,
        stats.drops_by_kind,
        stats.drops_by_reason,
    )
    return [list(c.items()) for c in counters], stats.total_packets, stats.total_values


def assert_same_mtree(new, old):
    """Every dict, radius, feature object, cost and counter of *new*
    equals *old*'s, in order."""
    for name in ("routing_feature", "covering_radius", "children", "child_info"):
        assert list(getattr(new, name)) == list(getattr(old, name)), name
    assert [list(kids) for kids in new.children.values()] == [
        list(kids) for kids in old.children.values()
    ]
    assert [list(info.items()) for info in new.child_info.values()] == [
        list(info.items()) for info in old.child_info.values()
    ]
    assert [float.hex(r) for r in new.covering_radius.values()] == [
        float.hex(r) for r in old.covering_radius.values()
    ]
    assert all(
        new.routing_feature[node] is feature for node, feature in old.routing_feature.items()
    )
    assert new.build_messages == old.build_messages
    assert _counters(new.stats) == _counters(old.stats)


def assert_matches_oracle(clustering, features, metric):
    new = build_mtree(clustering, features, metric)
    assert_same_mtree(new, mtree_oracle.build_mtree(clustering, features, metric))
    return new


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
    delta=st.floats(min_value=0.05, max_value=1.5),
    tilt=st.floats(min_value=-1.0, max_value=1.0),
    signalling=st.sampled_from(["implicit", "explicit"]),
    dim=st.sampled_from([1, 2, 4]),  # k-d features take the scalar `distance`
)
def test_random_geometric_property(n, seed, delta, tilt, signalling, dim):
    _, features, clustering = _clustered(
        n, seed, delta, tilt=tilt, dim=dim, signalling=signalling
    )
    assert_matches_oracle(clustering, features, EuclideanMetric())


def test_string_ids_in_scrambled_order():
    topology, features, clustering = _clustered(300, 2, 0.4)
    rng = random.Random(5)
    labels = list(topology.graph)
    rng.shuffle(labels)
    name = {node: f"s{label:04d}" for node, label in zip(topology.graph, labels)}
    # Every dict in its own shuffled order, so no order follows the ids.
    order = list(clustering.assignment)
    rng.shuffle(order)
    roots = clustering.roots
    rng.shuffle(roots)
    renamed = Clustering(
        assignment={name[v]: name[clustering.assignment[v]] for v in order},
        parent={name[v]: name[clustering.parent[v]] for v in reversed(order)},
        root_features={name[r]: clustering.root_features[r] for r in roots},
    )
    renamed_features = {name[v]: features[v] for v in order}
    index = assert_matches_oracle(renamed, renamed_features, EuclideanMetric())
    assert all(isinstance(node, str) for node in index.children)


def test_crash_repaired_clustering():
    network, result, features, metric, _ = test_faults._chaos_run(20, "explicit", 0.05, 3)
    assert result.repaired_components > 0
    assert_matches_oracle(result.clustering, features, metric)


def test_leaves_share_one_empty_child_list_and_table():
    _, features, clustering = _clustered(300, 2, 0.4)
    index = build_mtree(clustering, features, EuclideanMetric())
    leaves = [node for node, kids in index.children.items() if not kids]
    assert len({id(index.children[leaf]) for leaf in leaves}) == 1
    assert len({id(index.child_info[leaf]) for leaf in leaves}) == 1
    table = index.child_info[leaves[0]]
    assert type(table) is MappingProxyType and not table
    with pytest.raises(TypeError):
        table[leaves[0]] = (0.0, 0.0)
    assert all(type(kids) is list for kids in index.children.values() if kids)


def test_scale_40k_seed_3():
    """fig13's 4·10⁴ rung: 33,605 clusters, 6,395 tree edges, 5,650
    internal nodes."""
    dataset = generate_synthetic_dataset(40_000, seed=3, readings=200)
    metric = dataset.metric()
    clustering = run_elink(
        dataset.topology, dataset.features, metric, ELinkConfig(delta=0.05)
    ).clustering
    index = assert_matches_oracle(clustering, dataset.features, metric)
    assert clustering.num_clusters == 33_605
    assert index.build_messages == 12_790
    assert sum(1 for kids in index.children.values() if kids) == 5_650
