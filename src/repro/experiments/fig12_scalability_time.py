"""Figure 12 — scalability with time on the Tao data (log-scale plot).

Streams the Tao measurement month and tracks *cumulative* communication
per day for six schemes:

- ``centralized_raw``   — every raw measurement shipped to the base station;
- ``centralized_model`` — model coefficients shipped on slack violation;
- ``elink_implicit`` / ``elink_explicit`` — initial in-network clustering
  (+ backbone build, + explicit synchronization) followed by slack-based
  maintenance;
- ``hierarchical`` / ``spanning_forest`` — their initial clustering cost
  followed by the same maintenance algorithm over their clusters.

Expected shape (three log-scale bands): raw-data shipping is an order of
magnitude above coefficient shipping, which is another order of magnitude
above the in-network schemes; explicit ELink tracks implicit ELink with a
constant synchronization offset, and hierarchical carries its expensive
initial clustering.

Decomposed into one **trial per cost series**.  The feature trajectory
the seasonal models emit is sink-independent, so each trial replays the
shared Tao stream (:func:`~repro.experiments.streaming.tao_stream`, built
once per process and also read by Fig 10 and the energy experiment) into
just its own sink — per-series cumulative counts are identical to the
all-sinks-at-once loop by construction.
"""

from __future__ import annotations

from typing import Any

from repro.baselines import run_hierarchical, run_spanning_forest
from repro.core import (
    CentralizedUpdateBaseline,
    ELinkConfig,
    MaintenanceSession,
    run_elink,
)
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import replay, tao_stream
from repro.index import build_backbone
from repro.perf import process_memo

DELTA = 0.2
SLACK = 0.04

SERIES = (
    "centralized_raw",
    "centralized_model",
    "elink_implicit",
    "elink_explicit",
    "hierarchical",
    "spanning_forest",
)


def _context(profile: str, seed: int) -> dict[str, Any]:
    """Sink-independent state, shared per process (read-only).

    Holds the Tao stream (dataset, post-training features, feature
    trajectory), every scheme's initial clustering and the per-series
    initial message costs (section 8.2's accounting).
    """

    def build() -> dict[str, Any]:
        stream = tao_stream(profile, seed)
        dataset, features = stream.dataset, stream.features
        metric = dataset.metric()
        graph = dataset.topology.graph
        effective_delta = DELTA - 2 * SLACK

        implicit = run_elink(
            dataset.topology, features, metric, ELinkConfig(delta=effective_delta)
        )
        explicit = run_elink(
            dataset.topology,
            features,
            metric,
            ELinkConfig(delta=effective_delta, signalling="explicit"),
        )
        hierarchical = run_hierarchical(graph, features, metric, effective_delta)
        forest = run_spanning_forest(dataset.topology, features, metric, effective_delta)
        backbone_cost = build_backbone(graph, implicit.clustering).build_messages

        return {
            "stream": stream,
            "graph": graph,
            "metric": metric,
            "initial": {
                "centralized_raw": 0,
                "centralized_model": 0,
                "elink_implicit": implicit.total_messages + backbone_cost,
                "elink_explicit": explicit.total_messages + backbone_cost,
                "hierarchical": hierarchical.total_messages,
                "spanning_forest": forest.total_messages,
            },
            "clusterings": {
                "elink_implicit": implicit.clustering,
                "elink_explicit": explicit.clustering,
                "hierarchical": hierarchical.clustering,
                "spanning_forest": forest.clustering,
            },
        }

    return process_memo(("fig12", profile, seed), build)


def trial_specs(profile: str, seed: int = 7) -> list[dict[str, Any]]:
    """One picklable spec per cost series (the parallel unit)."""
    check_profile(profile)
    return [{"series": series, "seed": seed} for series in SERIES]


def run_trial(spec: dict[str, Any], profile: str) -> dict[str, Any]:
    """One scheme's per-day cumulative column (initial cost included)."""
    context = _context(profile, spec["seed"])
    series = spec["series"]
    stream = context["stream"]
    graph = context["graph"]
    features = stream.features

    if series == "centralized_raw":
        baseline = CentralizedUpdateBaseline(graph, features, 0, SLACK, raw=True)
        num_days, samples_per_day = stream.trajectory.shape[:2]
        for _day in range(num_days):
            for _t in range(samples_per_day):
                for node in graph.nodes:
                    baseline.observe_raw(node)
        # Raw shipping is uniform over the stream: per-day cumulative.
        per_day_raw = baseline.total_messages() // num_days
        values = [per_day_raw * (day + 1) for day in range(num_days)]
    elif series == "centralized_model":
        baseline = CentralizedUpdateBaseline(graph, features, 0, SLACK)
        values = replay(stream, {series: baseline})[series]
    else:
        session = MaintenanceSession(
            graph, context["clusterings"][series], features, context["metric"], DELTA, SLACK
        )
        initial = context["initial"][series]
        values = [initial + total for total in replay(stream, {series: session})[series]]
    return {"series": series, "values": values}


def combine_trials(
    results: list[dict[str, Any]], profile: str, seed: int = 7
) -> ExperimentTable:
    """Zip per-series columns (spec order) into the per-day table."""
    check_profile(profile)
    columns = {result["series"]: result["values"] for result in results}
    num_days = len(columns["centralized_raw"])
    table = ExperimentTable(
        name="fig12",
        title=(
            "Fig 12: scalability with time on Tao data "
            "(cumulative messages per day; paper plots this on a log scale)"
        ),
        columns=("day",) + SERIES,
    )
    for day in range(num_days):
        table.add_row(day=day + 1, **{series: columns[series][day] for series in SERIES})
    table.notes.append(
        f"delta = {DELTA}, slack = {SLACK}; distributed schemes include their initial "
        "clustering cost (ELink also the backbone build, per section 8.2)"
    )
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
