"""Regenerate ``tests/data/chaos_small.jsonl``, the checked-in chaos trace.

The trace is a small deterministic fault run used by the trace-inspector
smoke tests and the CI docs job: an 8x8 grid with a smooth scalar field,
ELink with explicit signalling and failure detection, and two scheduled
fail-stop crashes inside the protocol's kappa window (one mid-level
sentinel, so the sentinel-failover machinery fires and the trace contains
a full crash -> detection -> repair chain).

Everything is seeded and the fault plan is explicit (no randomness), so
rerunning this script after a behaviour change is the way to refresh the
fixture::

    PYTHONPATH=src python tools/make_chaos_trace.py [OUT_PATH]

The default output path is ``tests/data/chaos_small.jsonl`` relative to
the repository root.  Commit the regenerated file together with the
change that altered the trace, and sanity-check it first with::

    python -m repro trace tests/data/chaos_small.jsonl --repairs
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from repro.core import ELinkConfig, run_elink
from repro.core.elink import compute_kappa
from repro.geometry import QuadTreeDecomposition, grid_topology
from repro.obs import Tracer
from repro.sim import FaultInjector, FaultPlan, Network

SIDE = 8
DELTA = 1.0


def build_trace() -> tuple[Tracer, dict]:
    """Run the canonical small chaos run; returns (tracer, summary dict)."""
    topology = grid_topology(SIDE, SIDE)
    features = {
        node: np.array([(x + y) / 10.0])
        for node, (x, y) in topology.positions.items()
    }
    from repro.features import EuclideanMetric

    metric = EuclideanMetric()
    config = ELinkConfig(delta=DELTA, signalling="explicit", failure_detection=True)
    kappa = compute_kappa(topology.num_nodes, config.gamma)
    quadtree = QuadTreeDecomposition(topology)

    # Two explicit crashes inside the kappa window: a sentinel (so the
    # probe/takeover machinery produces a repair chain) and a leaf.  The
    # root is left alone -- it drives the explicit-mode round cascade.
    sentinels = sorted(
        (v for level in quadtree.sentinel_sets[1:] for v in level if v != quadtree.root),
        key=repr,
    )
    leaves = sorted(
        (v for v in topology.graph.nodes if quadtree.level_of[v] == quadtree.depth),
        key=repr,
    )
    plan = FaultPlan()
    plan.crash(0.40 * kappa, sentinels[len(sentinels) // 2])
    plan.crash(0.15 * kappa, leaves[len(leaves) // 3])

    tracer = Tracer()
    network = Network(topology.graph, tracer=tracer)
    injector = FaultInjector(network, plan)
    result = run_elink(
        topology, features, metric, config,
        quadtree=quadtree, network=network, injector=injector, tracer=tracer,
    )
    summary = {
        "clusters": result.num_clusters,
        "messages": result.total_messages,
        "crashed": sorted(injector.crash_times, key=repr),
        "repairs": len(injector.repair_latencies()),
        "events": tracer.emitted,
    }
    return tracer, summary


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; writes the fixture and prints a summary."""
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(__file__).resolve().parent.parent
    out = pathlib.Path(argv[0]) if argv else root / "tests" / "data" / "chaos_small.jsonl"
    tracer, summary = build_trace()
    out.parent.mkdir(parents=True, exist_ok=True)
    written = tracer.export_jsonl(str(out))
    print(f"wrote {out} ({written} events)")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if summary["repairs"] == 0:
        print("WARNING: no repair chain in the trace -- the smoke test needs one",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
