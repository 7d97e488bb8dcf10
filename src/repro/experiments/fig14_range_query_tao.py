"""Figure 14 — range-query cost on the Tao data.

Builds the M-tree index and leader backbone on top of each clustering
algorithm's output and measures the average per-query message cost as the
query radius sweeps (0.7δ, 0.9δ), with query features sampled uniformly
from the nodes (paper §8.6).  TAG's fixed distribute-and-collect cost is
the flat reference line.

Expected shape: on this spatially-correlated data the clustered engines
prune most clusters via δ-compactness, sitting several times below TAG;
the advantage narrows as the radius grows and pruning weakens.

Decomposed into one **trial per radius fraction**.  The monolithic loop
consumed one RNG sequentially across fractions, so ``trial_specs``
pre-draws every fraction's (initiator, query) index pairs in that exact
order and embeds them in the specs — trials are then independent while
the table stays byte-identical to the serial sweep.  The fitted dataset
and the three query engines live in the per-process memo.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines import run_hierarchical, run_spanning_forest
from repro.core import Clustering, ELinkConfig, run_elink
from repro.datasets.tao import TAO_COLS, TAO_ROWS
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import tao_features
from repro.index import build_backbone, build_mtree
from repro.perf import process_memo
from repro.queries import QueryContext, RangeQueryEngine, TagEngine, brute_force_range

DELTA = 0.08
RADIUS_FRACTIONS = (0.7, 0.75, 0.8, 0.85, 0.9)


def _engine(graph, clustering: Clustering, features, metric) -> RangeQueryEngine:
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(graph, clustering)
    return RangeQueryEngine(QueryContext(clustering, features, metric, mtree, backbone))


def _num_queries(profile: str) -> int:
    return 200 if profile == "full" else 30


def _context(profile: str, seed: int) -> dict[str, Any]:
    """(nodes, features, metric, engines, tag), shared per process."""

    def build() -> dict[str, Any]:
        dataset, features = tao_features(profile, seed)
        metric = dataset.metric()
        topology = dataset.topology
        graph = topology.graph
        engines = {
            "elink": _engine(
                graph,
                run_elink(topology, features, metric, ELinkConfig(delta=DELTA)).clustering,
                features,
                metric,
            ),
            "hierarchical": _engine(
                graph,
                run_hierarchical(graph, features, metric, DELTA).clustering,
                features,
                metric,
            ),
            "spanning_forest": _engine(
                graph,
                run_spanning_forest(topology, features, metric, DELTA).clustering,
                features,
                metric,
            ),
        }
        return {
            "nodes": list(graph.nodes),
            "features": features,
            "metric": metric,
            "engines": engines,
            "tag": TagEngine(graph, features, metric),
        }

    return process_memo(("fig14", profile, seed), build)


def trial_specs(profile: str, seed: int = 7) -> list[dict[str, Any]]:
    """One picklable spec per radius fraction, query draws embedded."""
    check_profile(profile)
    num_queries = _num_queries(profile)
    num_nodes = TAO_ROWS * TAO_COLS
    rng = np.random.default_rng(seed)
    specs = []
    for fraction in RADIUS_FRACTIONS:
        pairs = [
            (int(rng.integers(num_nodes)), int(rng.integers(num_nodes)))
            for _ in range(num_queries)
        ]
        specs.append({"fraction": fraction, "pairs": pairs, "seed": seed})
    return specs


def run_trial(spec: dict[str, Any], profile: str) -> dict[str, Any]:
    """All engines over one radius fraction; returns the table row."""
    context = _context(profile, spec["seed"])
    nodes = context["nodes"]
    features = context["features"]
    metric = context["metric"]
    engines = context["engines"]
    radius = spec["fraction"] * DELTA
    costs: dict[str, list[int]] = {name: [] for name in engines}
    for initiator_index, query_index in spec["pairs"]:
        initiator = nodes[initiator_index]
        q = features[nodes[query_index]]
        truth = brute_force_range(features, metric, q, radius)
        for name, engine in engines.items():
            out = engine.query(q, radius, initiator)
            if out.matches != truth:
                raise AssertionError(f"{name} returned a wrong answer set")
            costs[name].append(out.messages)
    return {
        "radius_over_delta": spec["fraction"],
        "tag": context["tag"].per_query_cost(),
        **{name: float(np.mean(values)) for name, values in costs.items()},
    }


def combine_trials(
    results: list[dict[str, Any]], profile: str, seed: int = 7
) -> ExperimentTable:
    """Assemble per-fraction rows (spec order) into the printable table."""
    check_profile(profile)
    table = ExperimentTable(
        name="fig14",
        title=(
            f"Fig 14: range query cost on Tao data (avg messages/query, delta = {DELTA})"
        ),
        columns=("radius_over_delta", "elink", "hierarchical", "spanning_forest", "tag"),
    )
    for row in results:
        table.add_row(**row)
    table.notes.append("query features sampled uniformly from node features (section 8.6)")
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
