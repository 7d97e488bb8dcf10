"""Figure 11 — clustering quality with varying slack.

Granting a slack Δ means clustering with the reduced threshold δ-2Δ, so
every algorithm produces more clusters as Δ grows — the quality side of
the quality-for-communication trade Fig 10 prices.  This experiment sweeps
Δ at fixed δ on the Tao data and reports each algorithm's cluster count at
the effective threshold.
"""

from __future__ import annotations

from repro.baselines import (
    SpectralSolver,
    run_hierarchical,
    run_spanning_forest,
    spectral_clustering_search,
)
from repro.core import ELinkConfig, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.fig10_update_cost import DELTA, SLACKS
from repro.experiments.streaming import tao_features


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    dataset, features = tao_features(profile, seed)
    metric = dataset.metric()
    topology = dataset.topology

    table = ExperimentTable(
        name="fig11",
        title=(
            f"Fig 11: clustering quality with varying slack (delta = {DELTA}; "
            "clusters at effective threshold delta - 2*slack)"
        ),
        columns=("slack", "elink", "centralized", "hierarchical", "spanning_forest"),
    )
    # The effective threshold varies with the slack, but the spectral
    # solver's state is δ-independent — share it across the sweep.
    solver = SpectralSolver(topology.graph, features, metric)
    for slack in SLACKS:
        effective = DELTA - 2 * slack
        elink = run_elink(topology, features, metric, ELinkConfig(delta=effective))
        spectral = spectral_clustering_search(delta=effective, solver=solver)
        hierarchical = run_hierarchical(topology.graph, features, metric, effective)
        forest = run_spanning_forest(topology, features, metric, effective)
        table.add_row(
            slack=slack,
            elink=elink.num_clusters,
            centralized=spectral.num_clusters,
            hierarchical=hierarchical.num_clusters,
            spanning_forest=forest.num_clusters,
        )
    return table


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
