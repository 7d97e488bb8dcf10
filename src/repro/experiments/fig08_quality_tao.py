"""Figure 8 — clustering quality on the Tao dataset.

Sweeps δ and reports the number of clusters produced by ELink (implicit
and explicit — the paper notes they output identical clusters), the
centralized spectral algorithm, the distributed hierarchical algorithm and
the spanning-forest algorithm.  Paper parameters: φ = 0.1·δ, c = 4.

Expected shape: cluster counts fall as δ grows; ELink tracks the
centralized scheme closely and beats the spanning forest; hierarchical
sits between.

Decomposed into one **trial per δ** for the parallel runner; the fitted
dataset and the shared :class:`~repro.baselines.SpectralSolver` (one
eigendecomposition for the whole sweep) live in the per-process memo, so
a serial run shares them across trials exactly as the monolithic loop
did, and each pool worker builds them once.
"""

from __future__ import annotations

from typing import Any

from repro.baselines import (
    SpectralSolver,
    run_hierarchical,
    run_spanning_forest,
    spectral_clustering_search,
)
from repro.core import ELinkConfig, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import tao_features
from repro.perf import process_memo

#: δ sweep over the Tao feature space (weighted-Euclidean coefficient units).
DELTAS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)


def _context(profile: str, seed: int):
    """(topology, features, metric, solver), shared per process (read-only)."""

    def build():
        dataset, features = tao_features(profile, seed)
        metric = dataset.metric()
        # One solver for the whole δ sweep: the eigendecomposition and
        # per-k partitions are δ-independent, so they are computed once.
        solver = SpectralSolver(dataset.topology.graph, features, metric)
        return dataset.topology, features, metric, solver

    return process_memo(("fig08", profile, seed), build)


def trial_specs(profile: str, seed: int = 7) -> list[dict[str, Any]]:
    """One picklable spec per δ value (the parallel unit)."""
    check_profile(profile)
    return [{"delta": delta, "seed": seed} for delta in DELTAS]


def run_trial(spec: dict[str, Any], profile: str) -> dict[str, Any]:
    """Every algorithm at one δ; returns the table row."""
    topology, features, metric, solver = _context(profile, spec["seed"])
    delta = spec["delta"]
    implicit = run_elink(
        topology, features, metric, ELinkConfig(delta=delta, signalling="implicit")
    )
    explicit = run_elink(
        topology, features, metric, ELinkConfig(delta=delta, signalling="explicit")
    )
    spectral = spectral_clustering_search(delta=delta, solver=solver)
    hierarchical = run_hierarchical(topology.graph, features, metric, delta)
    forest = run_spanning_forest(topology, features, metric, delta)
    return {
        "delta": delta,
        "elink_implicit": implicit.num_clusters,
        "elink_explicit": explicit.num_clusters,
        "centralized": spectral.num_clusters,
        "hierarchical": hierarchical.num_clusters,
        "spanning_forest": forest.num_clusters,
    }


def combine_trials(
    results: list[dict[str, Any]], profile: str, seed: int = 7
) -> ExperimentTable:
    """Assemble per-δ rows (spec order) into the printable table."""
    check_profile(profile)
    table = ExperimentTable(
        name="fig08",
        title="Fig 8: clustering quality on Tao data (number of clusters vs delta)",
        columns=(
            "delta",
            "elink_implicit",
            "elink_explicit",
            "centralized",
            "hierarchical",
            "spanning_forest",
        ),
    )
    for row in results:
        table.add_row(**row)
    table.notes.append("phi = 0.1*delta, c = 4 (paper section 8.4)")
    return table


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    specs = trial_specs(profile, seed)
    results = [run_trial(spec, profile) for spec in specs]
    return combine_trials(results, profile, seed)


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
