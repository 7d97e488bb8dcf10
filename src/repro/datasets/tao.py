"""Tao-like sea-surface-temperature dataset (paper §8.1).

The paper uses sea-surface temperature from the Tropical Atmosphere Ocean
(TAO) buoy array: a 6×9 grid between 2S–2N and 140W–165E, 10-minute
resolution for December 1998, range (19.57, 32.79), μ=25.61, σ=0.67.  That
archive is not available offline, so this module generates a synthetic
stand-in engineered to preserve exactly the properties the experiments
exercise:

- **Spatial regimes.**  The tropical Pacific splits into a handful of
  contiguous temperature zones (warm pool west, cold tongue east — Fig 1).
  We partition the 9 longitudes into ``num_zones`` contiguous zones.
- **Zone-coherent model coefficients.**  Each zone draws its own seasonal
  AR parameters ``(α1, β1, β2, β3)`` (with per-node jitter), and node data
  is generated *from that model family*:

      x_t = α1·x_{t-1} + β1·μ_{T-1} + β2·μ_{T-2} + β3·μ_{T-3} + ε_t

  with ``μ_{T-j}`` the node's own observed previous daily means and
  ``Σβ = 1 - α1`` so the process stays at the zone's temperature level.
  Fitting the paper's model to this data therefore recovers features that
  cluster by zone — the property the real SST regimes gave the authors.
- **Calibration.**  Zone bases span ~23.5–28 °C so the overall mean lands
  near the published 25.6 °C with a sub-degree within-zone σ.

Each node is initialized with a model trained on the previous month
(:func:`fit_features`), mirroring the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro._validation import require_int_at_least, require_non_negative
from repro.features import TAO_WEIGHTS, WeightedEuclideanMetric
from repro.geometry.topology import Topology, grid_topology
from repro.models.seasonal import SEASONAL_LAGS, TaoNodeModel

#: Grid shape of the TAO buoy array used by the paper.
TAO_ROWS, TAO_COLS = 6, 9
#: 10-minute resolution => 144 samples per day.
TAO_SAMPLES_PER_DAY = 144

#: Per-zone lag profiles for the seasonal betas (scaled by 1 - α1): west
#: zones weight recent days, east zones spread over longer memory.
_ZONE_LAG_PROFILES = np.array(
    [
        [0.70, 0.20, 0.10],
        [0.50, 0.30, 0.20],
        [0.30, 0.45, 0.25],
        [0.15, 0.35, 0.50],
        [0.10, 0.25, 0.65],
        [0.05, 0.20, 0.75],
    ]
)


@dataclass
class TaoDataset:
    """A generated Tao-like dataset.

    Attributes
    ----------
    topology:
        The 6×9 grid communication graph.
    training:
        Per-node "previous month" series used to initialize models.
    stream:
        Per-node measurement series for the experiment month.
    zone_of:
        Ground-truth zone id per node (for sanity checks; the algorithms
        never see it).
    true_coefficients:
        The generating ``(α1, β1, β2, β3)`` per node (ground truth).
    """

    topology: Topology
    training: dict[Hashable, np.ndarray]
    stream: dict[Hashable, np.ndarray]
    zone_of: dict[Hashable, int]
    true_coefficients: dict[Hashable, np.ndarray]
    samples_per_day: int = TAO_SAMPLES_PER_DAY

    def metric(self) -> WeightedEuclideanMetric:
        """The paper's weighted Euclidean metric with weights (0.5,0.3,0.2,0.1)."""
        return WeightedEuclideanMetric(TAO_WEIGHTS)


def generate_tao_dataset(
    *,
    seed: int = 7,
    num_zones: int = 4,
    training_days: int = 31,
    stream_days: int = 31,
    samples_per_day: int = TAO_SAMPLES_PER_DAY,
    coefficient_jitter: float = 0.008,
    noise_sigma: float = 0.25,
    day_shock_sigma: float = 0.45,
) -> TaoDataset:
    """Generate a Tao-like SST dataset (see module docstring).

    Smaller ``samples_per_day`` / day counts make tests fast while keeping
    the same statistical structure; defaults match the paper's setup
    (10-minute resolution, a month-long stream).
    """
    require_int_at_least(num_zones, 1, "num_zones")
    if num_zones > _ZONE_LAG_PROFILES.shape[0]:
        raise ValueError(f"num_zones must be <= {_ZONE_LAG_PROFILES.shape[0]}")
    require_int_at_least(training_days, SEASONAL_LAGS + 1, "training_days")
    require_int_at_least(stream_days, 1, "stream_days")
    require_int_at_least(samples_per_day, 4, "samples_per_day")
    require_non_negative(coefficient_jitter, "coefficient_jitter")
    require_non_negative(noise_sigma, "noise_sigma")
    rng = np.random.default_rng(seed)
    topology = grid_topology(TAO_ROWS, TAO_COLS)

    # Contiguous longitudinal zones: warm pool (west) -> cold tongue (east).
    zone_of_col: dict[int, int] = {}
    for zone, cols in enumerate(np.array_split(np.arange(TAO_COLS), num_zones)):
        for col in cols:
            zone_of_col[int(col)] = zone
    zone_base = np.linspace(28.0, 23.5, num_zones)
    zone_alpha = np.linspace(0.75, 0.45, num_zones)

    total_days = training_days + stream_days
    training: dict[Hashable, np.ndarray] = {}
    stream: dict[Hashable, np.ndarray] = {}
    zone_of: dict[Hashable, int] = {}
    true_coefficients: dict[Hashable, np.ndarray] = {}

    # Temperature fluctuations are *regional*: all nodes of a zone share the
    # same innovation sequence (plus a small node-specific residual).  This
    # is physically faithful — buoys inside one SST regime see the same
    # synoptic weather — and it is what makes per-node fitted features
    # coherent within a zone: nodes regressing against near-identical
    # daily-mean trajectories incur near-identical estimation error, so
    # within-zone feature distances stay far below cross-zone distances.
    total_samples = total_days * samples_per_day
    zone_noise = rng.normal(0.0, noise_sigma, size=(num_zones, total_samples))
    zone_init = rng.normal(0.0, day_shock_sigma, size=(num_zones, SEASONAL_LAGS))

    for node in topology.graph.nodes:
        zone = zone_of_col[node % TAO_COLS]
        zone_of[node] = zone
        alpha = float(
            np.clip(zone_alpha[zone] + rng.normal(0.0, coefficient_jitter), 0.05, 0.95)
        )
        profile = _ZONE_LAG_PROFILES[zone] + rng.normal(0.0, coefficient_jitter, SEASONAL_LAGS)
        profile = np.clip(profile, 0.01, None)
        betas = profile / profile.sum() * (1.0 - alpha)
        true_coefficients[node] = np.concatenate(([alpha], betas))

        node_noise = zone_noise[zone] + rng.normal(0.0, 0.15 * noise_sigma, size=total_samples)
        series = _simulate_node(
            alpha,
            betas,
            base=float(zone_base[zone] + rng.normal(0.0, 0.15)),
            total_days=total_days,
            samples_per_day=samples_per_day,
            noise=node_noise,
            mean_init=zone_init[zone],
        )
        split = training_days * samples_per_day
        training[node] = series[:split]
        stream[node] = series[split:]

    return TaoDataset(topology, training, stream, zone_of, true_coefficients, samples_per_day)


def _simulate_node(
    alpha: float,
    betas: np.ndarray,
    *,
    base: float,
    total_days: int,
    samples_per_day: int,
    noise: np.ndarray,
    mean_init: np.ndarray,
) -> np.ndarray:
    """Simulate one node's series *exactly* from the seasonal model.

    The series follows ``x_t = α·x_{t-1} + β·(μ_{T-1},μ_{T-2},μ_{T-3}) + ε_t``
    where the μ's are the node's own *observed* previous daily means —
    exactly the regressors the fitted model uses, so OLS is consistent.
    Because ``Σβ = 1-α`` the daily-mean sequence is a driftless random walk
    (the day-to-day "weather" variation that identifies the β's).
    """
    daily_means = [base + float(mean_init[j]) for j in range(SEASONAL_LAGS)]
    x = base
    out = np.empty(total_days * samples_per_day, dtype=np.float64)
    idx = 0
    for _ in range(total_days):
        mu = np.array(daily_means[-SEASONAL_LAGS:])[::-1]  # mu_{T-1}, mu_{T-2}, mu_{T-3}
        drive = float(betas @ mu)
        day_start = idx
        for _ in range(samples_per_day):
            x = alpha * x + drive + noise[idx]
            out[idx] = x
            idx += 1
        daily_means.append(float(out[day_start:idx].mean()))
    return out


def fit_features(
    dataset: TaoDataset,
) -> tuple[dict[Hashable, TaoNodeModel], dict[Hashable, np.ndarray]]:
    """Initialize every node's seasonal model from the training month.

    Returns (models, features); *features* maps each node to its fitted
    ``(α1, β1, β2, β3)`` coefficient vector.
    """
    models: dict[Hashable, TaoNodeModel] = {}
    features: dict[Hashable, np.ndarray] = {}
    for node in dataset.topology.graph.nodes:
        model = TaoNodeModel(dataset.samples_per_day)
        features[node] = model.fit(dataset.training[node])
        models[node] = model
    return models, features
