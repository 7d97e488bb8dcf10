"""Tests for the ELink clustering protocol (paper §3–§5)."""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELinkConfig, run_elink, validate_clustering
from repro.core.elink import compute_kappa, implicit_schedule
from repro.features import EuclideanMetric
from repro.geometry import Topology, grid_topology, random_geometric_topology


def fig5_instance():
    """The paper's Fig 5 worked example (δ = 6, sentinel D).

    Features embedded on a line so the distances-to-D match the figure:
    d(D,F)=1, d(D,G)=2, d(D,B)=2, d(D,A)=3, d(D,E)=3, d(D,C)=4.
    """
    graph = nx.Graph(
        [("A", "B"), ("B", "C"), ("B", "D"), ("D", "E"), ("D", "F"), ("F", "G")]
    )
    positions = {
        "D": (0.0, 0.0),
        "B": (-1.0, 0.0),
        "A": (-2.0, 0.1),
        "C": (-1.0, 1.0),
        "E": (1.0, 0.2),
        "F": (0.5, -0.5),
        "G": (1.5, -0.6),
    }
    features = {
        "D": np.array([0.0]),
        "F": np.array([1.0]),
        "G": np.array([2.0]),
        "B": np.array([-2.0]),
        "A": np.array([-3.0]),
        "C": np.array([-4.0]),
        "E": np.array([3.0]),
    }
    return Topology(graph, positions), features


@pytest.mark.parametrize("signalling", ["implicit", "explicit"])
def test_fig5_worked_example(signalling):
    topology, features = fig5_instance()
    result = run_elink(
        topology,
        features,
        EuclideanMetric(),
        ELinkConfig(delta=6.0, signalling=signalling),
    )
    clustering = result.clustering
    # D roots the big cluster {A, B, D, E, F, G}; C is excluded (d=4 > δ/2).
    assert clustering.root_of("D") == "D"
    big = set(clustering.members("D"))
    assert big == {"A", "B", "D", "E", "F", "G"}
    assert clustering.root_of("C") == "C"
    assert clustering.num_clusters == 2
    assert not validate_clustering(
        topology.graph, clustering, features, EuclideanMetric(), 6.0
    )


@pytest.mark.parametrize("signalling", ["implicit", "explicit"])
def test_single_node_network(signalling):
    topology = grid_topology(1, 1)
    features = {0: np.array([1.0])}
    result = run_elink(
        topology, features, EuclideanMetric(), ELinkConfig(delta=1.0, signalling=signalling)
    )
    assert result.num_clusters == 1
    assert result.clustering.root_of(0) == 0


def test_uniform_features_give_single_cluster(small_grid):
    features = {v: np.array([5.0]) for v in small_grid.graph.nodes}
    result = run_elink(small_grid, features, EuclideanMetric(), ELinkConfig(delta=1.0))
    assert result.num_clusters == 1


def test_distinct_features_give_singletons(small_grid):
    features = {v: np.array([100.0 * v]) for v in small_grid.graph.nodes}
    result = run_elink(small_grid, features, EuclideanMetric(), ELinkConfig(delta=1.0))
    assert result.num_clusters == small_grid.num_nodes


def test_gradient_field_cluster_count(small_grid, small_grid_features):
    result = run_elink(
        small_grid, small_grid_features, EuclideanMetric(), ELinkConfig(delta=0.5)
    )
    assert 1 < result.num_clusters < small_grid.num_nodes


def test_delta_half_rule_bounds_distance_to_root(small_grid, small_grid_features):
    metric = EuclideanMetric()
    delta = 0.6
    result = run_elink(small_grid, small_grid_features, metric, ELinkConfig(delta=delta))
    for root, members in result.clustering.clusters().items():
        pruning_feature = result.clustering.root_features[root]
        for member in members:
            assert (
                metric.distance(small_grid_features[member], pruning_feature)
                <= delta / 2 + 1e-9
            )


@pytest.mark.parametrize("signalling", ["implicit", "explicit"])
def test_clustering_is_valid_delta_clustering(random_topology, random_features, signalling):
    metric = EuclideanMetric()
    result = run_elink(
        random_topology,
        random_features,
        metric,
        ELinkConfig(delta=1.5, signalling=signalling),
    )
    violations = validate_clustering(
        random_topology.graph, result.clustering, random_features, metric, 1.5
    )
    assert violations == []


def test_implicit_and_explicit_produce_equivalent_quality(random_topology, random_features):
    """The paper states both signalling modes output the same clusters; that
    holds exactly only when same-level sentinels start simultaneously.  The
    explicit mode's start messages arrive with intra-level skew, so a few
    border nodes may land differently — quality must still match closely
    (see DESIGN.md)."""
    metric = EuclideanMetric()
    implicit = run_elink(
        random_topology, random_features, metric, ELinkConfig(delta=1.0)
    )
    explicit = run_elink(
        random_topology,
        random_features,
        metric,
        ELinkConfig(delta=1.0, signalling="explicit"),
    )
    difference = abs(implicit.num_clusters - explicit.num_clusters)
    assert difference <= max(2, int(0.1 * implicit.num_clusters))


def test_explicit_costs_more_than_implicit(random_topology, random_features):
    metric = EuclideanMetric()
    implicit = run_elink(random_topology, random_features, metric, ELinkConfig(delta=1.0))
    explicit = run_elink(
        random_topology,
        random_features,
        metric,
        ELinkConfig(delta=1.0, signalling="explicit"),
    )
    assert explicit.sync_messages > 0
    assert implicit.sync_messages == 0
    assert explicit.total_messages > implicit.total_messages


def test_explicit_protocol_time_recorded(random_topology, random_features):
    result = run_elink(
        random_topology,
        random_features,
        EuclideanMetric(),
        ELinkConfig(delta=1.0, signalling="explicit"),
    )
    assert result.protocol_time >= result.completion_time > 0


@pytest.mark.parametrize(
    ("signalling", "engine"), [("implicit", "batch"), ("explicit", "handlers")]
)
def test_result_fields_are_python_numbers(signalling, engine, monkeypatch):
    """Counts are ints and times floats on either engine, so a result's
    fields serialise as JSON."""
    from tests.test_engine_equivalence import _final_state_spy

    returned = _final_state_spy(monkeypatch)
    topology = grid_topology(5, 5)
    features = {v: np.array([(x + 2 * y) / 5.0]) for v, (x, y) in topology.positions.items()}
    result = run_elink(
        topology, features, EuclideanMetric(), ELinkConfig(delta=0.6, signalling=signalling)
    )
    assert (returned[0] is not None) == (engine == "batch")
    assert type(result.repaired_components) is int
    assert type(result.total_switches) is int
    assert type(result.completion_time) is float
    assert type(result.protocol_time) is float
    fields = ("repaired_components", "total_switches", "completion_time", "protocol_time")
    json.dumps({name: getattr(result, name) for name in fields})


def test_zero_switch_budget_still_valid(random_topology, random_features):
    metric = EuclideanMetric()
    result = run_elink(
        random_topology, random_features, metric, ELinkConfig(delta=1.5, max_switches=0)
    )
    assert result.total_switches == 0
    assert not validate_clustering(
        random_topology.graph, result.clustering, random_features, metric, 1.5
    )


def test_switches_bounded_by_budget(random_topology):
    rng = np.random.default_rng(3)
    features = {v: rng.normal(size=1) for v in random_topology.graph.nodes}
    config = ELinkConfig(delta=2.0, max_switches=2, phi=0.0)
    result = run_elink(random_topology, features, EuclideanMetric(), config)
    # total switches <= budget * nodes (loose) and the run stays valid
    assert result.total_switches <= 2 * random_topology.num_nodes
    assert not validate_clustering(
        random_topology.graph, result.clustering, features, EuclideanMetric(), 2.0
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ELinkConfig(delta=0.0)
    with pytest.raises(ValueError):
        ELinkConfig(delta=1.0, phi=-0.1)
    with pytest.raises(ValueError):
        ELinkConfig(delta=1.0, max_switches=-1)
    with pytest.raises(ValueError):
        ELinkConfig(delta=1.0, signalling="telepathy")
    with pytest.raises(ValueError):
        ELinkConfig(delta=1.0, ack_window=1.5)
    with pytest.raises(TypeError):  # no engine switch: the legality gate picks
        ELinkConfig(delta=1.0, vectorized=True)


def test_config_default_phi_is_tenth_of_delta():
    assert ELinkConfig(delta=2.0).switch_threshold == pytest.approx(0.2)
    assert ELinkConfig(delta=2.0, phi=0.05).switch_threshold == 0.05


def test_missing_features_rejected(small_grid):
    features = {v: np.array([0.0]) for v in list(small_grid.graph.nodes)[:-1]}
    with pytest.raises(ValueError, match="features missing"):
        run_elink(small_grid, features, EuclideanMetric(), ELinkConfig(delta=1.0))


def test_kappa_formula():
    assert compute_kappa(100, 0.3) == pytest.approx(1.3 * np.sqrt(50.0))


def test_implicit_schedule_monotone_and_shaped():
    starts = implicit_schedule(100, 4, gamma=0.3)
    assert starts[0] == 0.0
    assert all(b > a for a, b in zip(starts, starts[1:]))
    kappa = compute_kappa(100, 0.3)
    # t_0 = kappa, so S_1 starts exactly at kappa.
    assert starts[1] == pytest.approx(kappa)
    # t_l < 2*kappa for all l, so gaps are bounded by 2*kappa.
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert all(gap <= 2 * kappa + 1e-9 for gap in gaps)


@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=30),
    delta=st.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=20, deadline=None)
def test_validity_property_random_instances(n, seed, delta):
    topology = random_geometric_topology(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    features = {v: rng.normal(size=2) for v in topology.graph.nodes}
    metric = EuclideanMetric()
    for signalling in ("implicit", "explicit"):
        result = run_elink(
            topology, features, metric, ELinkConfig(delta=delta, signalling=signalling)
        )
        violations = validate_clustering(
            topology.graph, result.clustering, features, metric, delta
        )
        assert violations == []


def test_message_complexity_linear_in_n():
    """Theorem 2/3: packets grow linearly with N (constant per node)."""
    per_node = []
    for side in (6, 12, 18):
        topology = grid_topology(side, side)
        rng = np.random.default_rng(0)
        features = {
            v: np.array([0.1 * (topology.positions[v][0] + topology.positions[v][1])])
            for v in topology.graph.nodes
        }
        result = run_elink(topology, features, EuclideanMetric(), ELinkConfig(delta=1.0))
        per_node.append(result.stats.total_packets / topology.num_nodes)
    # Messages per node stay within a small constant band as N grows 9x.
    assert max(per_node) / min(per_node) < 2.0


# ----------------------------------------------------------------------
# unordered expansion (§5 thought experiment)
# ----------------------------------------------------------------------
def test_unordered_mode_is_valid_and_fast(random_topology, random_features):
    metric = EuclideanMetric()
    implicit = run_elink(random_topology, random_features, metric, ELinkConfig(delta=1.5))
    unordered = run_elink(
        random_topology,
        random_features,
        metric,
        ELinkConfig(delta=1.5, signalling="unordered"),
    )
    assert not validate_clustering(
        random_topology.graph, unordered.clustering, random_features, metric, 1.5
    )
    # O(sqrt(N)) vs O(sqrt(N) log N): unordered finishes much earlier.
    assert unordered.protocol_time < implicit.protocol_time


def test_unordered_quality_never_better_on_correlated_field(small_grid, small_grid_features):
    metric = EuclideanMetric()
    implicit = run_elink(small_grid, small_grid_features, metric, ELinkConfig(delta=0.6))
    unordered = run_elink(
        small_grid,
        small_grid_features,
        metric,
        ELinkConfig(delta=0.6, signalling="unordered"),
    )
    assert unordered.num_clusters >= implicit.num_clusters


def test_unordered_singleton_roots_dissolve():
    """On a uniform field every node self-elects; singleton roots then
    dissolve toward smaller ids.  Simultaneous dissolution shatters most
    chains — the §5 "excessive contention" — so the bar is only: some
    merging happened, and quality is far below the ordered modes'."""
    topology = grid_topology(5, 5)
    features = {v: np.array([0.0]) for v in topology.graph.nodes}
    unordered = run_elink(
        topology, features, EuclideanMetric(), ELinkConfig(delta=1.0, signalling="unordered")
    )
    implicit = run_elink(topology, features, EuclideanMetric(), ELinkConfig(delta=1.0))
    assert unordered.total_switches > 0
    assert implicit.num_clusters < unordered.num_clusters < topology.num_nodes
