"""Scale sanity: ELink handles the paper's 2500-node deployments quickly
and still emits valid δ-clusterings."""

import numpy as np

from repro.core import ELinkConfig, run_elink
from repro.core.delta import check_delta_compact
from repro.datasets import generate_death_valley_dataset


def test_elink_on_2500_node_death_valley():
    dataset = generate_death_valley_dataset(seed=5, num_sensors=2500)
    metric = dataset.metric()
    result = run_elink(
        dataset.topology, dataset.features, metric, ELinkConfig(delta=200.0)
    )
    assert result.num_clusters > 1
    # Full validation is O(sum cluster_size^2); spot-check the largest
    # clusters for delta-compactness and every cluster for coverage.
    clusters = result.clustering.clusters()
    assert sum(len(m) for m in clusters.values()) == 2500
    largest = sorted(clusters.values(), key=len, reverse=True)[:10]
    for members in largest:
        assert check_delta_compact(members, dataset.features, metric, 200.0) == []


def test_explicit_mode_on_800_node_synthetic():
    from repro.datasets import generate_synthetic_dataset

    dataset = generate_synthetic_dataset(800, seed=1, readings=200)
    result = run_elink(
        dataset.topology,
        dataset.features,
        dataset.metric(),
        ELinkConfig(delta=0.05, signalling="explicit"),
    )
    assert result.num_clusters > 1
    assert result.sync_messages > 0
    # Theorem 3: explicit packets stay linear-ish in N (generous bound).
    assert result.stats.total_packets < 40 * 800


def test_explicit_2500_node_synthetic_pinned(monkeypatch):
    """Explicit signalling at fig13's first rung (seed 3, δ = 0.05) runs on
    the handler engine; its clustering, messages and timing are pinned."""
    from repro.datasets import generate_synthetic_dataset
    from tests.test_engine_equivalence import _final_state_spy

    returned = _final_state_spy(monkeypatch)
    dataset = generate_synthetic_dataset(2500, seed=3, readings=200)
    result = run_elink(
        dataset.topology,
        dataset.features,
        dataset.metric(),
        ELinkConfig(delta=0.05, signalling="explicit"),
    )
    assert returned == [None]  # the gate declined: a handler run
    assert (result.num_clusters, result.total_messages) == (2_054, 110_980)
    assert (result.completion_time, result.protocol_time) == (5013.0, 5282.5)
    assert result.total_switches == 1
