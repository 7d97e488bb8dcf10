"""The one Tao input path of the experiment suite.

Every Tao experiment (Figs 1, 8, 10–12, 14 and the Tao ablations) reads
the same month of sea-surface temperature, so the inputs are built here
once per process (:func:`repro.perf.process_memo`) and shared:

- :func:`tao_features` — the dataset and the features fitted on its
  training month, for the quality experiments;
- :func:`tao_stream` — the update experiments' dataset, start features and
  the *feature trajectory*: every node's seasonal model stepped once
  through the measurement month, a ``(days, samples_per_day, nodes, 4)``
  array;
- :func:`replay` — the one loop that feeds a trajectory to *sinks*
  (maintenance sessions or centralized baselines exposing
  ``update_feature(node, feature)`` and ``total_messages()``).

The trajectory does not depend on any sink, so one materialisation serves
every slack, scheme and experiment.  Shared arrays are read-only: an
in-place write by one experiment raises ``ValueError`` instead of silently
changing the next experiment's input.  Sinks copy what they keep.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.datasets.tao import TaoDataset, fit_features, generate_tao_dataset
from repro.models.seasonal import TAO_FEATURE_DIM
from repro.perf import process_memo

#: A sink absorbs per-node feature updates and reports its message total.
UpdateSink = object  # duck-typed: update_feature(node, feature), total_messages()


class TaoStream(NamedTuple):
    """The update experiments' input: dataset, start features, trajectory."""

    dataset: TaoDataset
    features: dict[Hashable, np.ndarray]
    #: ``trajectory[day, t, k]`` is node ``k``'s feature (``graph.nodes``
    #: order) after the ``t``-th measurement of stream day ``day``.
    trajectory: np.ndarray


def tao_features(profile: str, seed: int) -> tuple[TaoDataset, dict[Hashable, np.ndarray]]:
    """The quality experiments' dataset and fitted features (shared, read-only)."""

    def build() -> tuple[TaoDataset, dict[Hashable, np.ndarray]]:
        if profile == "full":
            dataset = generate_tao_dataset(seed=seed)
        else:
            dataset = generate_tao_dataset(
                seed=seed, samples_per_day=24, training_days=8, stream_days=2
            )
        _, features = fit_features(dataset)
        _freeze(dataset, features.values())
        return dataset, features

    return process_memo(("tao", profile, seed), build)


def tao_stream(profile: str, seed: int) -> TaoStream:
    """The update experiments' dataset, start features and feature trajectory."""

    def build() -> TaoStream:
        if profile == "full":
            dataset = generate_tao_dataset(seed=seed, samples_per_day=48)
        else:
            dataset = generate_tao_dataset(
                seed=seed, samples_per_day=12, training_days=8, stream_days=4
            )
        models, features = fit_features(dataset)
        nodes = list(dataset.topology.graph.nodes)
        spd = dataset.samples_per_day
        num_days = len(dataset.stream[nodes[0]]) // spd
        trajectory = np.empty((num_days, spd, len(nodes), TAO_FEATURE_DIM))
        for day in range(num_days):
            for t in range(spd):
                idx = day * spd + t
                for k, node in enumerate(nodes):
                    value = float(dataset.stream[node][idx])
                    trajectory[day, t, k] = models[node].observe(value)
        _freeze(dataset, [*features.values(), trajectory])
        return TaoStream(dataset, features, trajectory)

    return process_memo(("tao-stream", profile, seed), build)


def replay(stream: TaoStream, sinks: Mapping[str, UpdateSink]) -> dict[str, list[int]]:
    """Feed the trajectory to every sink in stream order.

    Each (day, sample, node) update goes to the sinks in dict order.
    Returns each sink's cumulative ``total_messages()`` at every day
    boundary (one entry per stream day).
    """
    nodes = list(stream.dataset.topology.graph.nodes)
    trajectory = stream.trajectory
    cumulative: dict[str, list[int]] = {name: [] for name in sinks}
    for day in range(trajectory.shape[0]):
        for t in range(trajectory.shape[1]):
            for k, node in enumerate(nodes):
                feature = trajectory[day, t, k]
                for sink in sinks.values():
                    sink.update_feature(node, feature)
        for name, sink in sinks.items():
            cumulative[name].append(int(sink.total_messages()))
    return cumulative


def _freeze(dataset: TaoDataset, arrays: Iterable[np.ndarray]) -> None:
    """Make the shared input arrays read-only."""
    for array in (
        *dataset.training.values(),
        *dataset.stream.values(),
        *dataset.true_coefficients.values(),
        *arrays,
    ):
        array.flags.writeable = False
