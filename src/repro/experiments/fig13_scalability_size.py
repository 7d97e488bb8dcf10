"""Figure 13 — scalability with network size on the synthetic data.

Sweeps N over the paper's 100–800 range.  For every N the network is
clustered once by each scheme and then maintains a stream of model-update
rounds; the reported cost is clustering + update handling:

- the centralized scheme ships every node's coefficients to the base
  station and keeps shipping on slack violations — cost grows with network
  *diameter* × N;
- hierarchical clustering pays leader-bound negotiation every merge round
  — the O(N²) term;
- ELink (both signalling modes) and the spanning forest confine everything
  locally — near-linear in N, with explicit ELink carrying the
  synchronization surcharge over implicit.

Decomposed into one **trial per network size N** — the loop body was
already independent per N, so each trial regenerates its own dataset
and streams its own update rounds.
"""

from __future__ import annotations

import resource
import time
from typing import Any

from repro.baselines import (
    centralized_collection_cost,
    run_hierarchical,
    run_spanning_forest,
)
from repro.core import (
    CentralizedUpdateBaseline,
    ELinkConfig,
    MaintenanceSession,
    run_elink,
)
from repro.datasets import generate_synthetic_dataset, stream_measurements
from repro.experiments.common import ExperimentTable, check_profile

DELTA = 0.08
SLACK = 0.015
UPDATE_ROUNDS = 150

SIZES_FULL = (100, 200, 400, 600, 800)
SIZES_QUICK = (60, 120)

#: Size ladder for the ``--max-n`` scale mode (trimmed/extended to max_n).
#: The 4·10⁵/10⁶ rungs need the vectorised round processor (engaged by
#: default) to finish in reasonable wall time.
SCALE_SIZES = (2500, 10_000, 40_000, 100_000, 400_000, 1_000_000)
#: AR-fit readings for scale runs: the fit converges long before 2000 and
#: the scale mode measures clustering cost, not estimator quality.
SCALE_READINGS = 200


def trial_specs(profile: str, seed: int = 3) -> list[dict[str, Any]]:
    """One picklable spec per network size (the parallel unit)."""
    check_profile(profile)
    sizes = SIZES_FULL if profile == "full" else SIZES_QUICK
    return [{"n": n, "seed": seed} for n in sizes]


def run_trial(spec: dict[str, Any], profile: str) -> dict[str, Any]:
    """Cluster + maintain one network size; returns the table row."""
    check_profile(profile)
    rounds = UPDATE_ROUNDS if profile == "full" else 30
    n, seed = spec["n"], spec["seed"]
    effective_delta = DELTA - 2 * SLACK

    dataset = generate_synthetic_dataset(n, seed=seed)
    metric = dataset.metric()
    graph = dataset.topology.graph
    base_station = dataset.nodes[0]

    implicit = run_elink(
        dataset.topology, dataset.features, metric, ELinkConfig(delta=effective_delta)
    )
    explicit = run_elink(
        dataset.topology,
        dataset.features,
        metric,
        ELinkConfig(delta=effective_delta, signalling="explicit"),
    )
    hierarchical = run_hierarchical(graph, dataset.features, metric, effective_delta)
    forest = run_spanning_forest(dataset.topology, dataset.features, metric, effective_delta)

    sinks = {
        "elink_implicit": MaintenanceSession(
            graph, implicit.clustering, dataset.features, metric, DELTA, SLACK
        ),
        "elink_explicit": MaintenanceSession(
            graph, explicit.clustering, dataset.features, metric, DELTA, SLACK
        ),
        "hierarchical": MaintenanceSession(
            graph, hierarchical.clustering, dataset.features, metric, DELTA, SLACK
        ),
        "spanning_forest": MaintenanceSession(
            graph, forest.clustering, dataset.features, metric, DELTA, SLACK
        ),
    }
    centralized = CentralizedUpdateBaseline(graph, dataset.features, base_station, SLACK)
    # Centralized also pays the initial coefficient collection.
    centralized_total = centralized_collection_cost(graph, base_station, 1)

    trajectory = stream_measurements(dataset, rounds, seed=seed + 1)
    nodes = dataset.nodes
    for step in range(trajectory.shape[0]):
        for k, node in enumerate(nodes):
            feature = trajectory[step, k : k + 1]
            for sink in sinks.values():
                sink.update_feature(node, feature)
            centralized.update_feature(node, feature)
    centralized_total += centralized.total_messages()

    return {
        "n": n,
        "elink_implicit": implicit.total_messages
        + sinks["elink_implicit"].total_messages(),
        "elink_explicit": explicit.total_messages
        + sinks["elink_explicit"].total_messages(),
        "centralized": centralized_total,
        "hierarchical": hierarchical.total_messages
        + sinks["hierarchical"].total_messages(),
        "spanning_forest": forest.total_messages
        + sinks["spanning_forest"].total_messages(),
    }


def combine_trials(
    results: list[dict[str, Any]], profile: str, seed: int = 3
) -> ExperimentTable:
    """Assemble per-size rows (spec order) into the printable table."""
    check_profile(profile)
    rounds = UPDATE_ROUNDS if profile == "full" else 30
    table = ExperimentTable(
        name="fig13",
        title="Fig 13: scalability with network size on synthetic data (total messages)",
        columns=(
            "n",
            "elink_implicit",
            "elink_explicit",
            "centralized",
            "hierarchical",
            "spanning_forest",
        ),
    )
    for row in results:
        table.add_row(**row)
    table.notes.append(
        f"delta = {DELTA}, slack = {SLACK}, {rounds} streamed update rounds per size"
    )
    return table


def run(profile: str = "full", seed: int = 3) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    specs = trial_specs(profile, seed)
    results = [run_trial(spec, profile) for spec in specs]
    return combine_trials(results, profile, seed)


# ----------------------------------------------------------------------
# scale mode (--max-n): 10⁴–10⁶ nodes on the vectorised round processor
# ----------------------------------------------------------------------
def scale_trial_specs(max_n: int, seed: int = 3) -> list[dict[str, Any]]:
    """One picklable spec per scale-ladder size, ending exactly at *max_n*."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    sizes = [size for size in SCALE_SIZES if size < max_n]
    sizes.append(max_n)
    return [{"n": size, "seed": seed} for size in sizes]


def run_scale_trial(spec: dict[str, Any]) -> dict[str, Any]:
    """Generate + cluster one scale-ladder size; returns the table row.

    Only ELink implicit runs at scale: the O(N²) baselines (hierarchical
    merge rounds, dense centralized collection) are exactly what Fig 13
    already shows diverging at N ≤ 800, and they do not finish at 10⁵.
    Wall times split dataset generation (topology + AR fit) from the
    clustering run so BENCH trends attribute regressions to the right
    layer.
    """
    n, seed = spec["n"], spec["seed"]
    effective_delta = DELTA - 2 * SLACK
    start = time.perf_counter()
    dataset = generate_synthetic_dataset(n, seed=seed, readings=SCALE_READINGS)
    generated = time.perf_counter()
    result = run_elink(
        dataset.topology,
        dataset.features,
        dataset.metric(),
        ELinkConfig(delta=effective_delta),
    )
    clustered = time.perf_counter()
    elink_wall = clustered - generated
    # ru_maxrss is kilobytes on Linux; the high-water mark covers the whole
    # trial (generation + clustering), which is what capacity planning needs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    return {
        "n": n,
        "clusters": result.num_clusters,
        "messages": result.total_messages,
        "gen_wall_s": round(generated - start, 3),
        "elink_wall_s": round(elink_wall, 3),
        "msgs_per_s": round(result.total_messages / elink_wall) if elink_wall else None,
        "peak_rss_mb": peak_rss_mb,
    }


def combine_scale_trials(results: list[dict[str, Any]]) -> ExperimentTable:
    """Assemble scale rows (spec order) into the printable table."""
    table = ExperimentTable(
        name="fig13_scale",
        title="Fig 13 scale mode: ELink implicit clustering cost at 10⁴–10⁶ nodes",
        columns=(
            "n",
            "clusters",
            "messages",
            "gen_wall_s",
            "elink_wall_s",
            "msgs_per_s",
            "peak_rss_mb",
        ),
    )
    for row in results:
        table.add_row(**row)
    table.notes.append(
        f"delta = {DELTA - 2 * SLACK}, implicit signalling, "
        f"{SCALE_READINGS} AR-fit readings"
    )
    return table


def run_scale(max_n: int, seed: int = 3) -> ExperimentTable:
    """Run the scale sweep up to *max_n* nodes (see :func:`run_scale_trial`)."""
    results = [run_scale_trial(spec) for spec in scale_trial_specs(max_n, seed)]
    return combine_scale_trials(results)


def main() -> None:
    """Command-line entry point: full profile, or the --max-n scale sweep."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="run the scale sweep up to N nodes instead of the paper's figure",
    )
    args = parser.parse_args()
    if args.max_n is not None:
        run_scale(args.max_n).print()
    else:
        run().print()


if __name__ == "__main__":
    main()
