"""Tests for the experiment suite's shared Tao input path."""

import numpy as np
import pytest

from repro.core import ELinkConfig, MaintenanceSession, run_elink
from repro.datasets import fit_features
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.streaming import replay, tao_features, tao_stream
from repro.models.seasonal import TaoNodeModel
from repro.perf.memo import clear_process_memo

#: Every experiment that reads the Tao dataset.
TAO_EXPERIMENTS = (
    "fig01",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "ablation_signalling",
    "ablation_asynchrony",
    "ablation_switching",
    "ablation_loss",
    "energy_hotspots",
)


@pytest.fixture(scope="module")
def stream():
    return tao_stream("quick", 7)


def test_tao_stream_features_cover_every_node(stream):
    nodes = list(stream.dataset.topology.graph.nodes)
    assert list(stream.features) == nodes
    for feature in stream.features.values():
        assert feature.shape == (4,)
        assert np.all(np.isfinite(feature))
    _, fitted = fit_features(stream.dataset)
    for node in nodes:
        assert np.array_equal(stream.features[node], fitted[node])


def test_replay_returns_per_day_cumulative(stream):
    metric = stream.dataset.metric()
    clustering = run_elink(
        stream.dataset.topology, stream.features, metric, ELinkConfig(delta=0.2)
    ).clustering
    session = MaintenanceSession(
        stream.dataset.topology.graph, clustering, stream.features, metric, 0.3, 0.05
    )
    out = replay(stream, {"elink": session})
    assert list(out) == ["elink"]
    series = out["elink"]
    assert len(series) == 4  # one entry per stream day
    assert all(b >= a for a, b in zip(series, series[1:]))  # cumulative
    assert series[-1] == session.total_messages()


def test_trajectory_matches_fresh_models(stream):
    dataset = stream.dataset
    models, _ = fit_features(dataset)
    nodes = list(dataset.topology.graph.nodes)
    spd = dataset.samples_per_day
    days = len(dataset.stream[nodes[0]]) // spd
    expected = np.array(
        [
            [
                [models[node].observe(float(dataset.stream[node][day * spd + t])) for node in nodes]
                for t in range(spd)
            ]
            for day in range(days)
        ]
    )
    assert stream.trajectory.shape == (days, spd, len(nodes), 4)
    assert stream.trajectory.dtype == np.float64
    assert stream.trajectory.tobytes() == expected.tobytes()


def test_shared_tao_inputs_are_read_only(stream):
    dataset, features = tao_features("quick", 7)
    with pytest.raises(ValueError):
        stream.trajectory[0, 0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        features[0][0] = 0.0
    with pytest.raises(ValueError):
        dataset.stream[0][0] = 0.0
    with pytest.raises(ValueError):
        stream.dataset.stream[0][0] = 0.0


def test_tao_experiments_build_their_inputs_once(monkeypatch):
    """The quick Tao experiments fit each input once and step the models
    through the month once: 2 datasets × 54 nodes fits, 54 nodes × 12
    samples × 4 days observes."""
    calls = {"fit": 0, "observe": 0}
    fit, observe = TaoNodeModel.fit, TaoNodeModel.observe

    def counted_fit(self, history):
        calls["fit"] += 1
        return fit(self, history)

    def counted_observe(self, value):
        calls["observe"] += 1
        return observe(self, value)

    monkeypatch.setattr(TaoNodeModel, "fit", counted_fit)
    monkeypatch.setattr(TaoNodeModel, "observe", counted_observe)
    clear_process_memo()
    for name in TAO_EXPERIMENTS:
        ALL_EXPERIMENTS[name].run(profile="quick")
    assert calls == {"fit": 108, "observe": 2592}
