"""Command-line interface.

Usage (also available as ``python -m repro``):

    repro cluster --dataset tao --algorithm elink --delta 0.08 --map
    repro cluster --dataset synthetic --n 300 --algorithm spanning-forest \
                  --delta 0.05 --save state.json
    repro cluster --dataset synthetic --n 100 --algorithm elink-explicit \
                  --delta 0.1 --crash 0.05 --trace chaos.jsonl
    repro query --state state.json --node 17 --radius 0.06 --explain
    repro query-bench --quick --jobs 2
    repro experiment fig10
    repro trace chaos.jsonl --repairs
    repro verify --replay --n 49 --crash 0.08 --seed 11
    repro serve --n 48 --rounds 120 --checkpoint-dir ckpt --checkpoint-every 5s
    repro info

``cluster`` runs any of the clustering algorithms on a generated dataset,
prints a summary (optionally an ASCII cluster map) and can persist the
result — for ELink it can record a structured trace (``--trace``) and
inject fail-stop crashes (``--crash``); ``query`` answers a range query
over a saved state; ``experiment`` regenerates a paper figure; ``trace``
inspects a recorded JSONL trace (see docs/OBSERVABILITY.md); ``verify``
runs the correctness oracle — invariant-monitored chaos runs and the
``--replay`` determinism differ (see docs/ARCHITECTURE.md,
"Verification"); ``serve`` runs the long-running supervised clustering
service — streaming ingest, checkpoint/restore, chaos hooks and a query
API (see docs/SERVING.md); ``query-bench`` replays seed-deterministic
zipfian workloads through the cost-model query planner and records
p50/p99 latency, queries/sec and messages/query in the BENCH schema-5
``queries`` block (see docs/QUERYING.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

import numpy as np


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed spatial clustering in sensor networks (EDBT 2006 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cluster = commands.add_parser("cluster", help="cluster a generated dataset")
    cluster.add_argument(
        "--dataset",
        choices=("tao", "death-valley", "synthetic"),
        default="tao",
    )
    cluster.add_argument(
        "--algorithm",
        choices=(
            "elink",
            "elink-explicit",
            "elink-unordered",
            "spanning-forest",
            "hierarchical",
            "spectral",
        ),
        default="elink",
    )
    cluster.add_argument("--delta", type=float, required=True, help="clustering threshold")
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument("--n", type=int, default=400, help="network size (non-Tao datasets)")
    cluster.add_argument("--save", metavar="PATH", help="persist topology+features+clustering as JSON")
    cluster.add_argument("--map", action="store_true", help="print an ASCII cluster map")
    cluster.add_argument("--validate", action="store_true", help="check the delta-clustering definition")
    cluster.add_argument(
        "--trace",
        metavar="PATH",
        help="record a JSONL protocol trace (ELink only; inspect with 'repro trace')",
    )
    cluster.add_argument(
        "--crash",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="crash this node fraction mid-run (elink-explicit only; enables failure detection)",
    )

    query = commands.add_parser("query", help="range query over a saved state")
    query.add_argument("--state", required=True, help="JSON file written by 'cluster --save'")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--node", help="query with this node's feature")
    group.add_argument("--feature", help="comma-separated query feature values")
    query.add_argument("--radius", type=float, required=True)
    query.add_argument(
        "--explain",
        action="store_true",
        help="choose the plan with the cost-model planner and print its "
        "estimated vs actual message cost",
    )
    query.add_argument(
        "--backend",
        choices=("mtree", "backbone", "flood"),
        default=None,
        help="force a plan backend instead of the planner's choice (implies --explain)",
    )

    experiment = commands.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument("name", help="fig08..fig15, complexity, path_query, or 'all'")
    experiment.add_argument("--quick", action="store_true")

    # Listed here for --help; 'trace', 'verify', 'serve' and 'query-bench'
    # are dispatched before this parser runs because each owns its own
    # argument set (repro.obs.inspect / repro.verify.cli / repro.serve.cli /
    # repro.queries.load).
    commands.add_parser("trace", help="inspect a JSONL protocol trace", add_help=False)
    commands.add_parser(
        "verify", help="run the correctness oracle (invariants / --replay differ)", add_help=False
    )
    commands.add_parser(
        "serve", help="run the resilient live clustering service", add_help=False
    )
    commands.add_parser(
        "query-bench",
        help="replay planner workloads, record the BENCH queries block",
        add_help=False,
    )

    commands.add_parser("info", help="print version and system inventory")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point.

    Every subcommand is pipe-safe: this net catches a BrokenPipeError
    that escapes any of them, so ``repro <cmd> ... | head`` exits
    quietly instead of dumping a traceback (the high-volume printers —
    ``trace``, ``query``, ``query-bench`` — additionally guard their own
    output loops, keeping their exit paths explicit).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        sys.stderr.close()
        return 0


def _dispatch(argv: list[str]) -> int:
    if argv and argv[0] == "trace":
        from repro.obs.inspect import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "query-bench":
        from repro.queries.load import main as query_bench_main

        return query_bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "info":
        return _cmd_info()
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------
def _load_dataset(args: argparse.Namespace):
    from repro.datasets import (
        fit_features,
        generate_death_valley_dataset,
        generate_synthetic_dataset,
        generate_tao_dataset,
    )

    if args.dataset == "tao":
        dataset = generate_tao_dataset(seed=args.seed, samples_per_day=48)
        _, features = fit_features(dataset)
        return dataset.topology, features, dataset.metric()
    if args.dataset == "death-valley":
        dataset = generate_death_valley_dataset(seed=args.seed, num_sensors=args.n)
        return dataset.topology, dataset.features, dataset.metric()
    dataset = generate_synthetic_dataset(args.n, seed=args.seed)
    return dataset.topology, dataset.features, dataset.metric()


def _run_algorithm(args: argparse.Namespace, topology, features, metric):
    from repro.baselines import (
        run_hierarchical,
        run_spanning_forest,
        spectral_clustering_search,
    )
    from repro.core import ELinkConfig, run_elink

    name = args.algorithm
    if not name.startswith("elink"):
        if args.trace or args.crash:
            raise SystemExit("--trace/--crash are only supported for the elink algorithms")
    if name.startswith("elink"):
        mode = {"elink": "implicit", "elink-explicit": "explicit", "elink-unordered": "unordered"}[name]
        tracer = None
        if args.trace:
            from repro.obs import Tracer

            tracer = Tracer()
        config = ELinkConfig(delta=args.delta, signalling=mode)
        network = None
        injector = None
        quadtree = None
        if args.crash:
            if mode != "explicit":
                raise SystemExit(
                    "--crash requires --algorithm elink-explicit "
                    "(the failure-detection layer is explicit-mode)"
                )
            from repro.core.elink import compute_kappa
            from repro.geometry import QuadTreeDecomposition
            from repro.sim import FaultInjector, FaultPlan, Network

            config = ELinkConfig(
                delta=args.delta, signalling="explicit", failure_detection=True
            )
            kappa = compute_kappa(topology.num_nodes, config.gamma)
            quadtree = QuadTreeDecomposition(topology)
            network = Network(topology.graph, tracer=tracer)
            # The quadtree root drives the explicit-mode round cascade, so
            # it is protected from the crash draw (the documented
            # FaultPlan.random pattern for roots that anchor a protocol).
            plan = FaultPlan.random(
                sorted(topology.graph.nodes, key=repr),
                seed=args.seed,
                crash_fraction=args.crash,
                crash_window=(0.05 * kappa, 0.75 * kappa),
                protected=(quadtree.root,),
            )
            injector = FaultInjector(network, plan)
        result = run_elink(
            topology, features, metric, config, quadtree=quadtree,
            network=network, injector=injector, tracer=tracer,
        )
        extra = {
            "messages": result.total_messages,
            "protocol_time": round(result.protocol_time, 1),
            "switches": result.total_switches,
        }
        if args.crash:
            extra["survivors"] = network.graph.number_of_nodes()
            extra["repair_messages"] = result.repair_messages
            extra["drops"] = result.stats.total_drops
            latencies = injector.repair_latencies()
            if latencies:
                extra["mean_repair_latency"] = round(sum(latencies) / len(latencies), 1)
        if tracer is not None:
            written = tracer.export_jsonl(args.trace)
            extra["trace"] = f"{args.trace} ({written} events)"
        return result.clustering, extra
    if name == "spanning-forest":
        result = run_spanning_forest(topology, features, metric, args.delta)
        return result.clustering, {"messages": result.total_messages}
    if name == "hierarchical":
        result = run_hierarchical(topology.graph, features, metric, args.delta)
        return result.clustering, {"messages": result.total_messages, "rounds": result.rounds}
    result = spectral_clustering_search(topology.graph, features, metric, args.delta, search="doubling")
    return result.clustering, {"messages": result.messages, "k": result.k_used}


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.viz import cluster_summary, render_clustering

    topology, features, metric = _load_dataset(args)
    clustering, extra = _run_algorithm(args, topology, features, metric)
    print(
        f"{args.algorithm} on {args.dataset}: {clustering.num_clusters} clusters "
        f"over {topology.num_nodes} nodes (delta={args.delta})"
    )
    for key, value in extra.items():
        print(f"  {key}: {value}")
    print(cluster_summary(clustering, features))
    if args.map:
        print(render_clustering(topology, clustering))
    if args.validate:
        from repro.core import validate_clustering

        violations = validate_clustering(topology.graph, clustering, features, metric, args.delta)
        print(f"validation: {'OK' if not violations else violations[:5]}")
        if violations:
            return 1
    if args.save:
        from repro.io import save_state

        save_state(
            args.save,
            topology=topology,
            features=features,
            clustering=clustering,
            metadata={
                "dataset": args.dataset,
                "algorithm": args.algorithm,
                "delta": args.delta,
                "seed": args.seed,
            },
        )
        print(f"saved state to {args.save}")
    return 0


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
def _cmd_query(args: argparse.Namespace) -> int:
    from repro.features import EuclideanMetric, WeightedEuclideanMetric, TAO_WEIGHTS
    from repro.index import build_backbone, build_mtree
    from repro.io import load_state
    from repro.queries import QueryContext, RangeQueryEngine

    topology, features, clustering, metadata = load_state(args.state)
    if clustering is None:
        print("state file has no clustering; run 'repro cluster --save' first", file=sys.stderr)
        return 1
    dim = int(next(iter(features.values())).shape[0])
    metric: Any
    if metadata.get("dataset") == "tao" and dim == len(TAO_WEIGHTS):
        metric = WeightedEuclideanMetric(TAO_WEIGHTS)
    else:
        metric = EuclideanMetric()

    if args.node is not None:
        key = _parse_node_id(args.node, features)
        q = features[key]
    else:
        q = np.array([float(part) for part in args.feature.split(",")])

    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    initiator = next(iter(topology.graph.nodes))
    try:
        if args.explain or args.backend:
            from repro.queries.planner import QueryPlanner

            planner = QueryPlanner(
                topology.graph, clustering, features, metric, mtree, backbone
            )
            planned = planner.range(q, args.radius, initiator, backend=args.backend)
            print(planned.explain_text())
            out = planned.result
        else:
            context = QueryContext(clustering, features, metric, mtree, backbone)
            engine = RangeQueryEngine(context)
            out = engine.query(q, args.radius, initiator)
        print(f"matches ({len(out.matches)}): {sorted(out.matches, key=repr)[:30]}")
        print(
            f"cost: {out.messages} messages "
            f"(pruned {out.clusters_pruned}, included {out.clusters_included}, "
            f"descended {out.clusters_descended} clusters)"
        )
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly like
        # `repro trace` does instead of dumping a traceback.
        sys.stderr.close()
        return 0
    return 0


def _parse_node_id(raw: str, features) -> Any:
    if raw in features:
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in features:
        return as_int
    raise SystemExit(f"node {raw!r} not found in the saved state")


# ----------------------------------------------------------------------
# experiment / info
# ----------------------------------------------------------------------
def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    profile = "quick" if args.quick else "full"
    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; choose from {sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        ALL_EXPERIMENTS[name].run(profile=profile).print()
        print()
    return 0


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__} — reproduction of Meka & Singh, EDBT 2006")
    print("systems: ELink (implicit/explicit/unordered), quadtree sentinels,")
    print("         discrete-event sensor network, AR/RLS/seasonal models,")
    print("         slack maintenance, M-tree index + backbone, range/path queries,")
    print("         baselines: spectral, spanning forest, hierarchical, TAG, BFS")
    print("experiments: fig08..fig15, complexity, path_query  (repro experiment all)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
