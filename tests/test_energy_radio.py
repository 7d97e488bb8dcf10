"""Tests for the energy model and the lossy-link (ARQ) radio model."""

import networkx as nx
import numpy as np
import pytest

from repro.core import ELinkConfig, run_elink, validate_clustering
from repro.features import EuclideanMetric
from repro.geometry import grid_topology
from repro.sim import (
    EnergyModel,
    LossyLinkModel,
    Message,
    Network,
    ProtocolNode,
)


class Sink(ProtocolNode):
    def handle_message(self, message):
        pass


def _network(**kwargs):
    graph = nx.path_graph(4)
    network = Network(graph, **kwargs)
    for v in graph.nodes:
        Sink(v, network, np.zeros(1))
    return network


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------
def test_energy_hotspot_ranking():
    energy = EnergyModel(tx_per_value=1.0, rx_per_value=1.0)
    for _ in range(3):
        for hop in range(3):  # one value relayed along the path 0-1-2-3
            energy.charge_hop(hop, hop + 1, 1)
    hottest = energy.hottest(2)
    assert hottest[0][0] in (1, 2)  # relays burn the most


def test_energy_imbalance_balanced_vs_skewed():
    balanced = EnergyModel()
    balanced.spent = {0: 1.0, 1: 1.0, 2: 1.0}
    assert balanced.imbalance() == pytest.approx(1.0)
    skewed = EnergyModel()
    skewed.spent = {0: 10.0, 1: 1.0, 2: 1.0}
    assert skewed.imbalance() == pytest.approx(10.0 / 4.0)


def test_energy_lifetime_rounds():
    energy = EnergyModel()
    assert energy.lifetime_rounds(10.0, 2.0) == pytest.approx(5.0)
    assert energy.lifetime_rounds(10.0, 0.0) == float("inf")


def test_energy_validation():
    with pytest.raises(ValueError):
        EnergyModel(tx_per_value=0.0)


# ----------------------------------------------------------------------
# lossy links
# ----------------------------------------------------------------------
def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossyLinkModel(1.0)
    with pytest.raises(ValueError):
        LossyLinkModel(-0.1)
    with pytest.raises(ValueError):
        LossyLinkModel(0.5, max_attempts=0)


def test_zero_loss_is_single_attempt():
    model = LossyLinkModel(0.0)
    assert all(model.attempts_for_hop() == 1 for _ in range(20))


def test_loss_attempts_mean_matches_expectation():
    model = LossyLinkModel(0.5, seed=3)
    samples = [model.attempts_for_hop() for _ in range(4000)]
    assert np.mean(samples) == pytest.approx(2.0, rel=0.1)
    assert min(samples) >= 1


def test_lossy_network_inflates_cost_and_delay():
    lossless = _network()
    lossless.route(Message("feature", 0, 3))
    lossless.run()
    lossy = _network(loss=LossyLinkModel(0.4, seed=7))
    lossy.route(Message("feature", 0, 3))
    lossy.run()
    assert lossy.stats.total_values >= lossless.stats.total_values
    assert lossy.kernel.now >= lossless.kernel.now


def test_elink_valid_under_loss_every_mode():
    topology = grid_topology(6, 6)
    rng = np.random.default_rng(0)
    features = {
        v: np.array([0.1 * topology.positions[v][0] + rng.normal(0, 0.01)])
        for v in topology.graph.nodes
    }
    metric = EuclideanMetric()
    for mode, window in (("implicit", 2.5), ("unordered", 2.5), ("explicit", 40.0)):
        network = Network(topology.graph, loss=LossyLinkModel(0.2, seed=1))
        result = run_elink(
            topology,
            features,
            metric,
            ELinkConfig(delta=0.5, signalling=mode, ack_window=window),
            network=network,
        )
        violations = validate_clustering(
            topology.graph, result.clustering, features, metric, 0.5
        )
        assert violations == [], mode


def test_expected_inflation_formula():
    assert LossyLinkModel(0.2).expected_inflation() == pytest.approx(1.25)


# ----------------------------------------------------------------------
# delay jitter (asynchrony)
# ----------------------------------------------------------------------
def test_jitter_validation():
    with pytest.raises(ValueError):
        _network(jitter=-0.5)
    # Non-finite jitter would make every sampled hop delay nan/inf.
    for jitter in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="jitter must be finite"):
            _network(jitter=jitter)


def test_jitter_inflates_delay_not_cost():
    calm = _network()
    calm.route(Message("feature", 0, 3))
    calm.run()
    jittery = _network(jitter=2.0, jitter_seed=5)
    jittery.route(Message("feature", 0, 3))
    jittery.run()
    assert jittery.stats.total_values == calm.stats.total_values
    assert jittery.kernel.now > calm.kernel.now
    assert jittery.kernel.now <= calm.kernel.now * 3.0 + 1e-9  # <= (1+jitter)x


def test_elink_valid_under_jitter_both_modes():
    topology = grid_topology(6, 6)
    rng = np.random.default_rng(1)
    features = {
        v: np.array([0.1 * topology.positions[v][0] + rng.normal(0, 0.01)])
        for v in topology.graph.nodes
    }
    metric = EuclideanMetric()
    for mode in ("implicit", "explicit"):
        network = Network(topology.graph, jitter=1.5, jitter_seed=2)
        result = run_elink(
            topology, features, metric, ELinkConfig(delta=0.5, signalling=mode),
            network=network,
        )
        assert validate_clustering(
            topology.graph, result.clustering, features, metric, 0.5
        ) == [], mode


# ----------------------------------------------------------------------
# lossy links: sampler edge cases
# ----------------------------------------------------------------------
def test_loss_max_attempts_caps_samples():
    model = LossyLinkModel(0.99, seed=5, max_attempts=10)
    samples = [model.attempts_for_hop() for _ in range(500)]
    assert max(samples) == 10  # p=0.99 overwhelmingly exceeds the cap
    assert min(samples) >= 1


def test_loss_buffer_refills_at_chunk_boundary():
    from repro.sim.radio import _SAMPLE_CHUNK

    model = LossyLinkModel(0.3, seed=9)
    for _ in range(_SAMPLE_CHUNK):
        model.attempts_for_hop()
    assert model._cursor == _SAMPLE_CHUNK  # buffer exactly exhausted
    model.attempts_for_hop()  # triggers the refill
    assert model._cursor == 1


def test_loss_determinism_across_refills():
    from repro.sim.radio import _SAMPLE_CHUNK

    n = 2 * _SAMPLE_CHUNK + 17  # spans three buffers
    a = LossyLinkModel(0.4, seed=21)
    b = LossyLinkModel(0.4, seed=21)
    assert [a.attempts_for_hop() for _ in range(n)] == [
        b.attempts_for_hop() for _ in range(n)
    ]
    # The chunked draws consume the generator exactly like scalar draws.
    rng = np.random.default_rng(21)
    expected = [max(1, int(x)) for x in rng.geometric(0.6, size=3 * _SAMPLE_CHUNK)][:n]
    c = LossyLinkModel(0.4, seed=21)
    assert [c.attempts_for_hop() for _ in range(n)] == expected
