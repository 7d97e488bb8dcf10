"""Ablation — the three signalling designs of §4–§5.

Runs implicit, explicit and *unordered* ELink on the Tao data and reports
quality (clusters), communication (messages) and protocol time side by
side.  This quantifies the §5 trade-off the paper states qualitatively:
unordered expansion finishes in O(√N) but pays in quality through
cross-level contention; explicit signalling pays a synchronization
surcharge for asynchronous-network correctness.
"""

from __future__ import annotations

from repro.core import ELinkConfig, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import tao_features

DELTAS = (0.05, 0.1, 0.2)
MODES = ("implicit", "explicit", "unordered")


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    dataset, features = tao_features(profile, seed)
    metric = dataset.metric()
    topology = dataset.topology

    table = ExperimentTable(
        name="ablation_signalling",
        title="Ablation: signalling designs (quality / messages / protocol time)",
        columns=(
            "delta",
            "implicit_clusters",
            "explicit_clusters",
            "unordered_clusters",
            "implicit_msgs",
            "explicit_msgs",
            "unordered_msgs",
            "implicit_time",
            "unordered_time",
        ),
    )
    for delta in DELTAS:
        results = {
            mode: run_elink(
                topology, features, metric, ELinkConfig(delta=delta, signalling=mode)
            )
            for mode in MODES
        }
        table.add_row(
            delta=delta,
            implicit_clusters=results["implicit"].num_clusters,
            explicit_clusters=results["explicit"].num_clusters,
            unordered_clusters=results["unordered"].num_clusters,
            implicit_msgs=results["implicit"].total_messages,
            explicit_msgs=results["explicit"].total_messages,
            unordered_msgs=results["unordered"].total_messages,
            implicit_time=round(results["implicit"].protocol_time, 1),
            unordered_time=round(results["unordered"].protocol_time, 1),
        )
    table.notes.append(
        "unordered = all sentinels start at t=0 (section 5): fast, poor quality"
    )
    return table


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
