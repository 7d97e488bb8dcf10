"""Figure 1 — the motivating SST zone map, re-enacted.

The paper opens with a heat map of Tropical Pacific sea-surface
temperature whose contiguous zones motivate spatial clustering.  This
"experiment" renders the synthetic Tao field and the δ-clustering ELink
recovers from it, side by side, as ASCII maps — the zone structure should
be visible in both — and reports how well the clustering agrees with the
(hidden) generating zones, pairwise.
"""

from __future__ import annotations

import itertools

from repro.core import ELinkConfig, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import tao_features
from repro.viz import render_clustering, render_field

DELTA = 0.3


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    dataset, features = tao_features(profile, seed)
    metric = dataset.metric()
    topology = dataset.topology
    result = run_elink(topology, features, metric, ELinkConfig(delta=DELTA))

    mean_temperature = {
        node: float(dataset.stream[node].mean()) for node in topology.graph.nodes
    }
    agreement = _pairwise_agreement(dataset, result.clustering)

    table = ExperimentTable(
        name="fig01",
        title="Fig 1: SST field and the zones ELink recovers (pairwise agreement)",
        columns=("delta", "clusters", "true_zones", "pairwise_agreement"),
    )
    table.add_row(
        delta=DELTA,
        clusters=result.num_clusters,
        true_zones=len(set(dataset.zone_of.values())),
        pairwise_agreement=round(agreement, 3),
    )
    table.notes.append("temperature field (density ramp):")
    table.notes.extend(render_field(topology, mean_temperature, width=27, height=6).split("\n"))
    table.notes.append("ELink clusters (one glyph per cluster):")
    table.notes.extend(render_clustering(topology, result.clustering, width=27, height=6).split("\n"))
    return table


def _pairwise_agreement(dataset, clustering) -> float:
    nodes = list(dataset.topology.graph.nodes)
    agree = total = 0
    for a, b in itertools.combinations(nodes, 2):
        same_zone = dataset.zone_of[a] == dataset.zone_of[b]
        same_cluster = clustering.root_of(a) == clustering.root_of(b)
        agree += int(same_zone == same_cluster)
        total += 1
    return agree / total


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
