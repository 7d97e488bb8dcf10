"""Path-query cost: clustered safe-tree search vs BFS flooding (§7.3).

The paper defers its path-query numbers to the technical report but
describes the algorithm and its BFS baseline; this experiment measures
both on the Death-Valley-like terrain, treating high elevation as the
danger feature — "find a route that stays at least γ below the ridge".

For each γ the table reports the average per-query messages of the
clustered engine and the BFS flood (over queries where both agree a path
exists), the clustered/flood gain, and the fraction of queries answered
(both engines always agree on feasibility; tests assert it).

Decomposed into one **trial per γ**.  Query endpoints were drawn from
one RNG consumed sequentially across the γ sweep, so ``trial_specs``
pre-draws each γ's (source, destination) index pairs in that order and
embeds them in the specs; the terrain, clustering and engine are shared
through the per-process memo.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import ELinkConfig, run_elink
from repro.datasets import generate_death_valley_dataset
from repro.experiments.common import ExperimentTable, check_profile
from repro.index import build_mtree
from repro.perf import process_memo
from repro.queries import PathQueryEngine, QueryContext, bfs_flood_path

DELTA = 150.0
GAMMAS = (300.0, 500.0, 700.0, 900.0)
DANGER = np.array([1996.0])  # the terrain's highest elevation


def _profile_params(profile: str) -> tuple[int, int]:
    """(num_sensors, queries per γ) for *profile*."""
    check_profile(profile)
    return (1200, 120) if profile == "full" else (250, 25)


def _context(profile: str, seed: int) -> dict[str, Any]:
    """(graph, nodes, features, metric, engine), shared per process."""

    def build() -> dict[str, Any]:
        num_sensors, _ = _profile_params(profile)
        dataset = generate_death_valley_dataset(seed=seed, num_sensors=num_sensors)
        metric = dataset.metric()
        graph = dataset.topology.graph
        clustering = run_elink(
            dataset.topology, dataset.features, metric, ELinkConfig(delta=DELTA)
        ).clustering
        mtree = build_mtree(clustering, dataset.features, metric)
        context = QueryContext(clustering, dataset.features, metric, mtree)
        engine = PathQueryEngine(context, graph)
        return {
            "graph": graph,
            "nodes": list(graph.nodes),
            "features": dataset.features,
            "metric": metric,
            "engine": engine,
        }

    return process_memo(("path_query", profile, seed), build)


def trial_specs(profile: str, seed: int = 11) -> list[dict[str, Any]]:
    """One picklable spec per γ, query endpoint draws embedded."""
    num_sensors, num_queries = _profile_params(profile)
    rng = np.random.default_rng(seed)
    specs = []
    for gamma in GAMMAS:
        pairs = [
            (int(rng.integers(num_sensors)), int(rng.integers(num_sensors)))
            for _ in range(num_queries)
        ]
        specs.append({"gamma": gamma, "pairs": pairs, "seed": seed})
    return specs


def run_trial(spec: dict[str, Any], profile: str) -> dict[str, Any]:
    """Clustered vs flood search at one γ; returns the table row."""
    context = _context(profile, spec["seed"])
    nodes = context["nodes"]
    graph = context["graph"]
    features = context["features"]
    metric = context["metric"]
    engine = context["engine"]
    gamma = spec["gamma"]
    clustered_costs, flood_costs, found = [], [], 0
    for source_index, destination_index in spec["pairs"]:
        source = nodes[source_index]
        destination = nodes[destination_index]
        ours = engine.query(source, destination, DANGER, gamma)
        flood = bfs_flood_path(
            graph, features, metric, source, destination, DANGER, gamma
        )
        if (ours.path is None) != (flood.path is None):
            raise AssertionError("clustered and flood engines disagree on feasibility")
        if ours.path is not None:
            found += 1
            clustered_costs.append(ours.messages)
            flood_costs.append(flood.messages)
    clustered_avg = float(np.mean(clustered_costs)) if clustered_costs else 0.0
    flood_avg = float(np.mean(flood_costs)) if flood_costs else 0.0
    return {
        "gamma": gamma,
        "clustered": clustered_avg,
        "bfs_flood": flood_avg,
        "flood_over_clustered": (flood_avg / clustered_avg if clustered_avg else 0.0),
        "found_fraction": found / len(spec["pairs"]),
    }


def combine_trials(
    results: list[dict[str, Any]], profile: str, seed: int = 11
) -> ExperimentTable:
    """Assemble per-γ rows (spec order) into the printable table."""
    check_profile(profile)
    table = ExperimentTable(
        name="path_query",
        title=(
            "Path query cost on Death Valley terrain (avg messages/query; "
            f"delta = {DELTA}, danger = ridge elevation)"
        ),
        columns=("gamma", "clustered", "bfs_flood", "flood_over_clustered", "found_fraction"),
    )
    for row in results:
        table.add_row(**row)
    return table


def run(profile: str = "full", seed: int = 11) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    specs = trial_specs(profile, seed)
    results = [run_trial(spec, profile) for spec in specs]
    return combine_trials(results, profile, seed)


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
