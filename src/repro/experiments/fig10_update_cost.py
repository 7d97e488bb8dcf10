"""Figure 10 — update-handling cost with varying slack.

Fixes δ, sweeps the slack Δ, clusters the Tao network with the reduced
threshold δ-2Δ, then replays the measurement month's coefficient updates
(every node's model stepped once through the month, shared by all slacks
— see :func:`~repro.experiments.streaming.tao_stream`), feeding each to

- ELink's slack-based maintenance (conditions A1–A3, §6), and
- the centralized baseline, which ships coefficients to the base station
  whenever they drift beyond Δ.

Expected shape: ELink's update traffic sits roughly an order of magnitude
below the centralized scheme at every slack (the centralized scheme cannot
prune with A2/A3 because nodes do not hold a root feature), and both fall
as the slack grows.
"""

from __future__ import annotations

from repro.core import CentralizedUpdateBaseline, ELinkConfig, MaintenanceSession, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import replay, tao_stream

#: Fixed δ for the sweep and the slack values (2Δ < δ must hold).
DELTA = 0.2
SLACKS = (0.01, 0.02, 0.04, 0.06, 0.08)


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    stream = tao_stream(profile, seed)
    dataset, features = stream.dataset, stream.features

    table = ExperimentTable(
        name="fig10",
        title="Fig 10: update cost with varying slack (total messages over the stream)",
        columns=("slack", "elink", "centralized", "centralized_over_elink"),
    )
    for slack in SLACKS:
        clustering = run_elink(
            dataset.topology,
            features,
            dataset.metric(),
            ELinkConfig(delta=DELTA - 2 * slack),
        ).clustering
        session = MaintenanceSession(
            dataset.topology.graph, clustering, features, dataset.metric(), DELTA, slack
        )
        centralized = CentralizedUpdateBaseline(
            dataset.topology.graph, features, base_station=0, slack=slack
        )
        replay(stream, {"elink": session, "centralized": centralized})
        elink_cost = session.total_messages()
        central_cost = centralized.total_messages()
        table.add_row(
            slack=slack,
            elink=elink_cost,
            centralized=central_cost,
            centralized_over_elink=(central_cost / elink_cost if elink_cost else float("inf")),
        )
    table.notes.append(f"delta = {DELTA}; initial clustering built with delta - 2*slack")
    return table


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
