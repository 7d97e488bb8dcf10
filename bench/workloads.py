"""The four benchmark workloads, one per process.

``python bench/workloads.py NAME --seed S --seconds T --trace 0|1`` runs
one workload against the ``repro`` package in this checkout's ``src/``
and prints a JSON result as its last line.  ``bench/run.py`` starts it in
a fresh process with the pinned environment (see README.md); run it
directly only to debug a workload.

Every workload has the same shape: build its inputs to the ready state
``SETUP_REPS`` times (``setup_s`` is the median), then repeat its unit
operation for about ``--seconds``, then check the outputs outside the
timed region.  The gated latency, ``op_p50_ms``, is the median over
every operation of the run.  Every timed sample is scaled to the
reference host speed by the kernel runs of ``hostspeed`` on either side
of it; the raw times are in the report.  The unit operation per
workload:

- ``scale_40k``: quadtree -> network -> implicit ELink -> M-tree +
  backbone over fig13's 40,000-node synthetic network;
- ``chaos_1000``: quadtree -> network -> fault plan -> explicit
  self-healing ELink over a 1,000-node synthetic network under crashes
  and link churn;
- ``query_terrain``: one planner query on a 5,000-sensor terrain;
- ``serve_stream``: one reading through the unpaced live service
  (ingest, broker and pipeline), timed over windows of 256 readings; an
  open-loop run at a fixed rate adds latency report lines.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

import hostspeed
import spans
from stats import percentile

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scale_40k", "chaos_1000", "query_terrain", "serve_stream")

#: Times inputs are built per run; setup_s is their median.
SETUP_REPS = 3

#: Input sizes.  ``smoke`` keeps every code path (the spatial-hash
#: generator still needs >= 4096 nodes) at a size the harness tests run
#: in seconds.
PROFILES: dict[str, dict[str, int]] = {
    "default": {"scale_n": 40_000, "chaos_n": 1_000, "terrain_n": 5_000, "serve_n": 1_024},
    "smoke": {"scale_n": 5_000, "chaos_n": 300, "terrain_n": 600, "serve_n": 96},
}

#: fig13's δ for the synthetic data (DELTA - 2·SLACK there).
SYNTHETIC_DELTA = 0.05
#: Death Valley clustering threshold, metres.
TERRAIN_DELTA = 100.0
#: Crash/churn window for chaos_1000, in multiples of κ.  Fault-free
#: explicit signalling runs for ~54κ at N=1000; crashes early in the run
#: stall the round cascade for some fault plans and not for others, which
#: moved the message count of a run by a factor of 9 between plans.
#: Crashing during the last, largest expansion rounds keeps the repair
#: path busy for every plan.
CHAOS_WINDOW = (40.0, 55.0)
#: Seed of the fixed deployments: the chaos_1000 topology and fault
#: schedule, and the query_terrain terrain and sensor placement.  Which
#: nodes crash, and where the terrain's clusters fall, moved the work of
#: one run by 10-30% (chaos route searches) and 3x (terrain cluster
#: counts) between seeds, far more than any bound can absorb.  --seed
#: drives what arrives on a fixed deployment instead: the sensor
#: readings (chaos) and the query stream (terrain).
DEPLOYMENT_SEED = {"chaos_1000": 3, "query_terrain": 11}
#: Readings streamed on top of the chaos deployment's fitted models.
CHAOS_READINGS = 50
#: Queries per pass of query_terrain.  Each pass starts on an empty
#: result cache (a new structure generation), so a pass does the same
#: work however many passes fit into a run, and a slow host does not
#: also lower the hit ratio.
QUERY_PASS = 250
#: Passes of distinct queries generated per run; a run that gets further
#: replays them from the first.
QUERY_PASSES = 16
#: Queries between two host-speed kernel runs (a pass holds 10 blocks).
QUERY_BLOCK = 25
#: Open-loop arrival rate of the paced serve run, readings per second.
SERVE_RATE = 2_000.0
#: Readings per timed window of the unpaced serve runs; the host-speed
#: kernel runs between windows.
SERVE_WINDOW = 256
#: Unpaced readings per second the serve round count is sized for.
SERVE_CAPACITY = 5_000.0
#: Host-speed sensitivity per workload (see hostspeed.py), rounded to one
#: decimal: 1 plus the slope of log op_p50_ms, scaled with sensitivity 1,
#: against log median kernel time over 77 runs of each workload on the
#: reference host (seeds 21-40, host slowdowns 1.1-2.2x).  At sensitivity
#: 1 the scaled times of a run on a host twice as slow read 13% low on
#: scale_40k, which spends much of its time in numpy, and 12% high on
#: query_terrain.
SENSITIVITY = {"scale_40k": 0.8, "chaos_1000": 1.0, "query_terrain": 1.2, "serve_stream": 1.1}

#: Spans a traced run must see, per workload; a missing one means a
#: wrapper no longer intercepts the layer it is named after.
EXPECTED_SPANS = {
    "scale_40k": (
        "geometry.topology.generate", "datasets.synthetic.generate",
        "geometry.quadtree.build", "sim.network.build", "core.elink.run",
        "core.elink_vec.run", "index.mtree.build", "index.backbone.build",
    ),
    "chaos_1000": (
        "geometry.topology.generate", "datasets.synthetic.generate",
        "geometry.quadtree.build", "sim.network.build", "sim.faults.plan",
        "core.elink.run", "sim.network.route",
    ),
    "query_terrain": (
        "geometry.topology.generate", "datasets.death_valley.generate",
        "geometry.quadtree.build", "sim.network.build", "core.elink.run",
        "core.elink_vec.run", "index.mtree.build", "index.backbone.build",
        "queries.planner.build", "queries.range", "queries.knn", "queries.path",
    ),
    "serve_stream": (
        "geometry.topology.generate", "serve.readings.stream",
        "baselines.spanning_forest.bootstrap", "serve.pipeline.apply",
        "serve.pipeline.coverage", "models.rls.update",
        "core.maintenance.update", "serve.broker.publish",
    ),
}

#: Whether the vectorised ELink round engine must engage (traced runs).
EXPECT_VECTORIZED = {"scale_40k": 1, "chaos_1000": 0, "query_terrain": 1}

now = time.perf_counter


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero.

    An installed copy elsewhere must not stand in for the code under
    test, so a checkout without ``src/repro`` is an error.
    """
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {package.parent}")
    sys.path.insert(0, str(package.parent))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {package}")


def peak_rss_mb() -> float:
    """High-water resident set of this process, MB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(*parts: Any) -> str:
    """Short digest of a workload's inputs (shows that --seed changes them)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class Run:
    """State of one workload run: settings, checks, samples and counters."""

    def __init__(self, name: str, seed: int, seconds: float, profile: str, recorder):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.profile = profile
        self.sizes = PROFILES[profile]
        self.rec = recorder
        self.speed = hostspeed.HostSpeed(SENSITIVITY[name])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: dict[str, float] = {}
        self.report: dict[str, Any] = {}
        self.e2e: dict[str, float] = {}

    def span(self, name: str):
        """A recorder span in traced runs, nothing otherwise."""
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; a failure is recorded by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def ops(self, count: int) -> None:
        """Count operations that completed.

        An operation that fails raises; ``run_workload`` records that as
        one failed operation.
        """
        self.attempted += count

    def pinned(self, values: dict[str, Any]) -> None:
        """Compare *values* against bench/expected.json for this seed."""
        if self.profile != "default":
            return
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        for key, want in expected.get(self.name, {}).get(str(self.seed), {}).items():
            self.check(values.get(key) == want, f"{key} = {values.get(key)}, pinned {want}")

    def same_every_rep(self, reps: list[dict[str, Any]], what: str) -> None:
        """Deterministic counters must repeat exactly across repetitions."""
        for index, rep in enumerate(reps[1:], start=1):
            self.check(rep == reps[0], f"{what} of repetition {index} differ: {rep} != {reps[0]}")


def repeat_setup(build: Callable[[], tuple[Any, dict]], run: Run) -> Any:
    """Build the inputs SETUP_REPS times; keeps the last, records the median.

    *build* returns the inputs and a stamp of deterministic counters,
    which must repeat exactly across builds.
    """
    samples, counters, result = [], [], None
    run.speed.mark()
    for _ in range(SETUP_REPS):
        result = None
        gc.collect()
        start = now()
        with run.span("bench.setup"):
            result, stamp = build()
        seconds = now() - start
        samples.append((seconds, seconds * run.speed.mark()))
        counters.append(stamp)
    run.same_every_rep(counters, "setup outputs")
    setup_metrics(run, samples)
    return result


def setup_metrics(run: Run, samples: list[tuple[float, float]]) -> None:
    """setup_s, the median of the (raw, reference-speed) seconds of
    *samples* at the reference speed; the raw median goes into the report."""
    run.e2e["setup_s"] = statistics.median(scaled for _raw, scaled in samples)
    run.report["raw_setup_s"] = statistics.median(raw for raw, _scaled in samples)


def closed_loop(run: Run, op: Callable[[Callable[[], None]], dict]) -> None:
    """Repeat *op* until --seconds have passed (at least once) and record
    its latency and throughput.

    *op* is called with ``lap``, which it may call between its stages.
    The host-speed kernel runs there, outside the timed region, and each
    stage is scaled by the kernel runs on either side of it: the host
    changes speed within seconds, so a long operation is corrected stage
    by stage rather than by the speed seen at its two ends.
    """
    samples: list[tuple[float, float]] = []
    reps: list[dict] = []
    run.speed.mark()
    start = now()
    while not samples or now() - start < run.seconds:
        gc.collect()
        raw = scaled = 0.0
        t0 = now()

        def lap() -> None:
            nonlocal raw, scaled, t0
            seconds = now() - t0
            raw += seconds
            scaled += seconds * run.speed.mark()
            t0 = now()

        with run.span("bench.op"):
            counters = op(lap)
        lap()
        samples.append((raw, scaled))
        reps.append(counters)
    run.ops(len(samples))
    run.same_every_rep(reps, "counters")
    run.counters.update(reps[0])
    op_metrics(run, samples)


def op_metrics(run: Run, samples: list[tuple[float, float]]) -> None:
    """op_p50_ms, the median per-operation latency over the run at the
    reference speed, from (raw, reference-speed) seconds *samples*.

    The report adds the tail percentiles, the sample count, operations
    per second (the inverse of the mean latency) and the raw median.
    """
    scaled = [seconds for _raw, seconds in samples]
    run.e2e["op_p50_ms"] = percentile(scaled, 50) * 1e3
    run.report["op_p95_ms"] = percentile(scaled, 95) * 1e3
    run.report["op_p99_ms"] = percentile(scaled, 99) * 1e3
    run.report["op_samples"] = len(scaled)
    run.report["ops_per_s"] = len(scaled) / sum(scaled)
    run.report["raw_op_p50_ms"] = percentile([raw for raw, _scaled in samples], 50) * 1e3


# ----------------------------------------------------------------------
# scale_40k
# ----------------------------------------------------------------------
def scale_40k(run: Run) -> None:
    from repro.core import elink
    from repro.datasets import synthetic
    from repro.geometry.quadtree import QuadTreeDecomposition
    from repro.index import backbone, mtree
    from repro.sim.network import Network

    n = run.sizes["scale_n"]

    def build():
        dataset = synthetic.generate_synthetic_dataset(n, seed=run.seed, readings=200)
        return dataset, {"edges": dataset.topology.graph.number_of_edges()}

    dataset = repeat_setup(build, run)
    topology, features, metric = dataset.topology, dataset.features, dataset.metric()
    config = elink.ELinkConfig(delta=SYNTHETIC_DELTA)

    def op(lap) -> dict:
        quadtree = QuadTreeDecomposition(topology)
        network = Network(topology.graph)
        result = elink.run_elink(
            topology, features, metric, config, quadtree=quadtree, network=network
        )
        lap()
        tree = mtree.build_mtree(result.clustering, features, metric)
        lap()
        spine = backbone.build_backbone(topology.graph, result.clustering)
        return {
            "core.elink.clusters": result.num_clusters,
            "core.elink.messages": result.total_messages,
            "core.elink.repair_messages": result.repair_messages,
            "sim.kernel.pushes": network.kernel.pushes,
            "index.messages": tree.build_messages + spine.build_messages,
        }

    closed_loop(run, op)
    run.counters["geometry.topology.edges"] = topology.graph.number_of_edges()
    run.report["input_fingerprint"] = fingerprint(sorted(topology.graph.edges)[:50], n)
    run.pinned(
        {
            "clusters": run.counters["core.elink.clusters"],
            "messages": run.counters["core.elink.messages"],
        }
    )


# ----------------------------------------------------------------------
# chaos_1000
# ----------------------------------------------------------------------
def chaos_1000(run: Run) -> None:
    from repro.core import elink, validate_clustering
    from repro.datasets import synthetic
    from repro.geometry.quadtree import QuadTreeDecomposition
    from repro.geometry.topology import Topology
    from repro.sim.faults import FaultInjector, FaultPlan
    from repro.sim.network import Network

    n = run.sizes["chaos_n"]
    deployment = DEPLOYMENT_SEED["chaos_1000"]

    def build():
        dataset = synthetic.generate_synthetic_dataset(n, seed=deployment, readings=200)
        synthetic.stream_measurements(dataset, CHAOS_READINGS, seed=run.seed)
        return dataset, {"edges": dataset.topology.graph.number_of_edges()}

    dataset = repeat_setup(build, run)
    base, features, metric = dataset.topology, dataset.features, dataset.metric()
    config = elink.ELinkConfig(
        delta=SYNTHETIC_DELTA, signalling="explicit", failure_detection=True
    )
    kappa = elink.compute_kappa(n, config.gamma)
    window = (CHAOS_WINDOW[0] * kappa, CHAOS_WINDOW[1] * kappa)
    survivors: list = []

    def op(_lap) -> dict:
        # The injector mutates the graph: every repetition gets a copy.
        graph = base.graph.copy()
        topology = Topology(graph, dict(base.positions))
        quadtree = QuadTreeDecomposition(topology)
        network = Network(graph)
        plan = FaultPlan.random(
            sorted(graph.nodes),
            seed=deployment,
            crash_fraction=0.05,
            crash_window=window,
            churn_edges=sorted(graph.edges),
            churn_events=50,
            churn_window=window,
            churn_downtime=2.0,
            protected=(quadtree.root,),
        )
        injector = FaultInjector(network, plan)
        result = elink.run_elink(
            topology, features, metric, config,
            quadtree=quadtree, network=network, injector=injector,
        )
        survivors[:] = [network.graph, result.clustering]
        return {
            "core.elink.clusters": result.num_clusters,
            "core.elink.messages": result.total_messages,
            "core.elink.repair_messages": result.repair_messages,
            "sim.kernel.pushes": network.kernel.pushes,
            "sim.stats.drops": result.stats.total_drops,
            "sim.faults.dead": len(network.dead_nodes),
        }

    closed_loop(run, op)
    graph, clustering = survivors
    violations = validate_clustering(graph, clustering, features, metric, SYNTHETIC_DELTA)
    run.check(not violations, f"{len(violations)} clustering violations on survivors")
    run.counters["geometry.topology.edges"] = base.graph.number_of_edges()
    run.report["input_fingerprint"] = fingerprint(
        sorted(base.graph.edges)[:50], [float(features[v][0]) for v in list(features)[:50]]
    )
    run.pinned(
        {
            "clusters": run.counters["core.elink.clusters"],
            "messages": run.counters["core.elink.messages"],
            "dead": run.counters["sim.faults.dead"],
        }
    )


# ----------------------------------------------------------------------
# query_terrain
# ----------------------------------------------------------------------
def query_terrain(run: Run) -> None:
    from repro.core import elink, validate_clustering
    from repro.datasets import death_valley
    from repro.geometry.quadtree import QuadTreeDecomposition
    from repro.index import backbone, mtree
    from repro.queries.load import WorkloadSpec, generate_workload
    from repro.queries.planner import PLAN_BACKENDS, QueryPlanner, canonical_answer
    from repro.queries.result_cache import QueryResultCache
    from repro.sim.network import Network

    n = run.sizes["terrain_n"]
    config = elink.ELinkConfig(delta=TERRAIN_DELTA)
    # Bumped at the start of every pass: the planner's cache sweeps its
    # entries when the structure generation advances.
    generation = [0]

    def build():
        dataset = death_valley.generate_death_valley_dataset(
            seed=DEPLOYMENT_SEED["query_terrain"], num_sensors=n
        )
        topology, metric = dataset.topology, dataset.metric()
        quadtree = QuadTreeDecomposition(topology)
        network = Network(topology.graph)
        result = elink.run_elink(
            topology, dataset.features, metric, config, quadtree=quadtree, network=network
        )
        tree = mtree.build_mtree(result.clustering, dataset.features, metric)
        spine = backbone.build_backbone(topology.graph, result.clustering)
        planner = QueryPlanner(
            topology.graph, result.clustering, dataset.features, metric, tree, spine,
            cache=QueryResultCache(4096), generation=lambda: generation[0],
        )
        stamp = {
            "core.elink.clusters": result.num_clusters,
            "core.elink.messages": result.total_messages,
            "core.elink.repair_messages": result.repair_messages,
            "sim.kernel.pushes": network.kernel.pushes,
        }
        return (dataset, result, planner), stamp

    dataset, result, planner = repeat_setup(build, run)
    graph, features, metric = dataset.topology.graph, dataset.features, dataset.metric()
    violations = validate_clustering(graph, result.clustering, features, metric, TERRAIN_DELTA)
    run.check(not violations, f"{len(violations)} clustering violations")
    run.counters.update(
        {
            "core.elink.clusters": result.num_clusters,
            "core.elink.messages": result.total_messages,
            "core.elink.repair_messages": result.repair_messages,
            "geometry.topology.edges": graph.number_of_edges(),
        }
    )
    spec = WorkloadSpec(
        mix="balanced",
        queries=QUERY_PASS * QUERY_PASSES,
        seed=run.seed,
        zipf_s=1.1,
        radii=(25.0, 50.0, 100.0),
        k_values=(1, 5, 10),
        gamma=300.0,
    )
    queries = generate_workload(list(graph.nodes), features, spec)

    # Whole passes until --seconds have passed, so every pass counts.
    latencies: list[tuple[float, float]] = []
    served: list[tuple[Any, Any]] = []
    passes = 0
    run.speed.mark()
    start = now()
    while passes == 0 or now() - start < run.seconds:
        generation[0] += 1
        first = (passes % QUERY_PASSES) * QUERY_PASS
        for block in range(first, first + QUERY_PASS, QUERY_BLOCK):
            raw = []
            for query in queries[block:block + QUERY_BLOCK]:
                kwargs = query.kwargs()
                t0 = now()
                with run.span(f"queries.{query.op}"):
                    planned = getattr(planner, query.op)(**kwargs)
                raw.append(now() - t0)
                served.append((query, planned))
            scale = run.speed.mark()
            latencies += [(seconds, seconds * scale) for seconds in raw]
        passes += 1
    run.ops(len(latencies))
    op_metrics(run, latencies)
    run.report["query_passes"] = passes

    # Every 10th answer is recomputed on another backend, bypassing the
    # cache (forced backends never read it): all backends are exact.
    for index in range(0, len(served), 10):
        query, planned = served[index]
        other = PLAN_BACKENDS[(PLAN_BACKENDS.index(planned.plan.backend) + 1) % 3]
        again = getattr(planner, query.op)(**query.kwargs(), backend=other)
        run.check(
            canonical_answer(query.op, planned.result)
            == canonical_answer(query.op, again.result),
            f"query {index} ({query.op}) differs between {planned.plan.backend} and {other}",
        )

    uncached = [p for _q, p in served if not p.cached]
    for op_name in ("range", "knn", "path"):
        mine = [p for q, p in served if q.op == op_name]
        run.counters[f"queries.{op_name}.calls"] = len(mine)
        run.counters[f"queries.{op_name}.messages_per_query"] = (
            sum(p.messages for p in mine) / len(mine) if mine else 0.0
        )
        durations = [
            seconds for (_raw, seconds), (q, _p) in zip(latencies, served) if q.op == op_name
        ]
        if durations:
            run.report[f"queries.{op_name}.p50_ms"] = percentile(durations, 50) * 1e3
            run.report[f"queries.{op_name}.p99_ms"] = percentile(durations, 99) * 1e3
    for backend in PLAN_BACKENDS:
        run.counters[f"queries.planner.plans.{backend}"] = sum(
            1 for p in uncached if p.plan.backend == backend
        )
    estimated = sum(p.estimated for p in uncached)
    run.counters["queries.planner.cost_ratio"] = (
        sum(p.messages for p in uncached) / estimated if estimated else 0.0
    )
    run.counters["queries.result_cache.hit_ratio"] = (len(served) - len(uncached)) / len(served)
    run.report["input_fingerprint"] = fingerprint(sorted(graph.edges)[:50], queries[:5])
    run.pinned({"clusters": result.num_clusters, "messages": result.total_messages})


# ----------------------------------------------------------------------
# serve_stream
# ----------------------------------------------------------------------
def _serve_once(run: Run, rounds: int, rate: float, *, snap_at: int) -> dict[str, Any]:
    """Build and run one service; returns its timeline and end state.

    ``apply`` and ``publish`` are wrapped on the service's own pipeline
    and broker instances (the untraced boundary of the serve metrics);
    the wrappers are removed before returning.  The pipeline's digest is
    taken at the first clustering and after reading *snap_at*.  An
    unpaced run also marks the host-speed kernel before the service is
    built and, from the first clustering on, between two readings at
    every window boundary.
    """
    from repro.serve.service import ClusteringService, ServiceConfig

    n = run.sizes["serve_n"]
    window = min(SERVE_WINDOW, n)  # smoke networks are smaller than a window
    timed = rate == 0.0
    if timed:
        run.speed.mark()
    built = now()
    service = ClusteringService(ServiceConfig(n=n, seed=run.seed, rounds=rounds, rate=rate))
    pipeline, broker = service.pipeline, service.broker
    apply, publish = pipeline.apply, broker.publish
    applied: list[tuple[int, float, float]] = []  # (seq, start, end)
    published: dict[int, float] = {}
    #: (seq of the next reading, time before the kernel, time after, scale)
    marks: list[tuple[int, float, float, float]] = []
    first: dict[str, Any] = {}  # the first clustering
    digests: dict[int, str] = {}

    def timed_apply(reading):
        if timed and first and reading.seq % window == 0:
            before = now()
            scale = run.speed.mark()
            marks.append((reading.seq, before, now(), scale))
        start = now()
        outcome = apply(reading)
        end = now()
        applied.append((reading.seq, start, end))
        if not first and pipeline.session is not None:
            first.update(
                seq=reading.seq,
                setup_s=end - built,
                digest=pipeline.snapshot()["digest"],
                clusters=pipeline.session.num_clusters,
            )
        if reading.seq == snap_at:
            digests[snap_at] = pipeline.snapshot()["digest"]
        return outcome

    async def timed_publish(topic, item):
        published[item.seq] = now()
        await publish(topic, item)

    pipeline.apply, broker.publish = timed_apply, timed_publish
    try:
        code = asyncio.run(service.run_async())
    finally:
        del pipeline.apply, broker.publish
    return {
        "code": code,
        "applied": applied,
        "published": published,
        "marks": marks,
        "first": first,
        "digest_at_snap": digests.get(snap_at),
        "snapshot": pipeline.snapshot(),
        "pipeline": pipeline,
    }


def serve_stream(run: Run) -> None:
    from repro.serve.service import ServiceConfig

    n = run.sizes["serve_n"]
    window = min(SERVE_WINDOW, n)
    bootstrap = ServiceConfig().bootstrap_rounds
    # The last reading of round `bootstrap` (0-based) triggers the first
    # clustering; readings count from one full round after it.
    warm = (bootstrap + 2) * n
    # The unpaced runs together time about --seconds / 2 of readings.
    measured = max(2, math.ceil(run.seconds / 2 * SERVE_CAPACITY / (SETUP_REPS * n)))
    rounds = bootstrap + 2 + measured

    setups, samples, unpaced = [], [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        out = _serve_once(run, rounds, 0.0, snap_at=warm - 1)
        first, marks = out["first"], out["marks"]
        run.check(out["code"] == 0, f"unpaced run exited {out['code']}")
        run.check(
            out["pipeline"].applied_total == rounds * n,
            f"unpaced run applied {out['pipeline'].applied_total} of {rounds * n}",
        )
        if first.get("seq", -1) // n != bootstrap or not marks:
            run.check(False, f"unpaced run clustered at reading {first.get('seq')}")
            continue
        # Setup ends at the first clustering; the first mark closes its block.
        setups.append((first["setup_s"], first["setup_s"] * marks[0][3]))
        # A window runs from the end of one mark to the start of the next.
        for (seq, _before, after, _scale), (_seq, next_before, _after, scale) in zip(
            marks, marks[1:]
        ):
            if seq >= warm:
                seconds = (next_before - after) / window
                samples.append((seconds, seconds * scale))
        unpaced.append(out)
    if not unpaced:
        return
    setup_metrics(run, setups)
    run.ops(len(samples) * window)
    op_metrics(run, samples)

    # The paced run ends where the unpaced runs' warm-up round ends, and
    # must reach the same state.
    gc.collect()
    paced = _serve_once(run, warm // n, SERVE_RATE, snap_at=warm - 1)
    run.check(paced["code"] == 0, f"paced run exited {paced['code']}")
    a = unpaced[0]
    for out in unpaced[1:]:
        run.check(out["snapshot"]["digest"] == a["snapshot"]["digest"], "unpaced end states differ")
    run.check(a["digest_at_snap"] is not None, "no state recorded after the warm-up round")
    for out in unpaced + [paced]:
        run.check(out["first"].get("digest") == a["first"]["digest"], "bootstrap states differ")
        run.check(
            out["digest_at_snap"] == a["digest_at_snap"],
            "state after the warm-up round differs between runs (paced or unpaced)",
        )

    # Latency of the paced run, due time -> applied, over the round after
    # the first clustering (reported, not gated).
    origin = paced["published"][0]
    latencies, lateness, queue_wait = [], [], []
    for seq, start, end in paced["applied"]:
        if seq < warm - n:
            continue
        due = origin + seq / SERVE_RATE
        latencies.append(end - due)
        lateness.append(paced["published"][seq] - due)
        queue_wait.append(start - paced["published"][seq])
    run.report.update(
        {
            "rounds": rounds,
            "serve.apply_p50_ms": percentile(latencies, 50) * 1e3,
            "serve.apply_p99_ms": percentile(latencies, 99) * 1e3,
            "serve.ingest.lateness_p50_ms": percentile(lateness, 50) * 1e3,
            "serve.ingest.lateness_p99_ms": percentile(lateness, 99) * 1e3,
            "serve.broker.queue_wait_p99_ms": percentile(queue_wait, 99) * 1e3,
        }
    )
    session = a["pipeline"].session
    run.counters.update(
        {
            "serve.applied": a["pipeline"].applied_total,
            "core.maintenance.messages": session.total_messages(),
            "serve.clusters": session.num_clusters,
        }
    )
    run.report["input_fingerprint"] = a["snapshot"]["digest"][:16]
    # The bootstrap state does not depend on --seconds; the end state does.
    run.report["setup_digest"] = a["first"]["digest"]
    run.pinned({"setup_digest": a["first"]["digest"]})


RUNNERS: dict[str, Callable[[Run], None]] = {
    "scale_40k": scale_40k,
    "chaos_1000": chaos_1000,
    "query_terrain": query_terrain,
    "serve_stream": serve_stream,
}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer busy-time shares: metric -> (span name, "busy" | "self").
SHARES = {
    "geometry.topology.generate_share": ("geometry.topology.generate", "busy"),
    "datasets.synthetic.fit_self_share": ("datasets.synthetic.generate", "self"),
    "datasets.death_valley.self_share": ("datasets.death_valley.generate", "self"),
    "serve.readings.stream_self_share": ("serve.readings.stream", "self"),
    "geometry.quadtree.build_share": ("geometry.quadtree.build", "busy"),
    "sim.network.build_share": ("sim.network.build", "busy"),
    "sim.faults.plan_share": ("sim.faults.plan", "busy"),
    "core.elink.run_share": ("core.elink.run", "busy"),
    "core.elink.self_share": ("core.elink.run", "self"),
    "core.elink_vec.run_share": ("core.elink_vec.run", "busy"),
    "sim.network.route_share": ("sim.network.route", "busy"),
    "index.mtree.build_share": ("index.mtree.build", "busy"),
    "index.backbone.build_share": ("index.backbone.build", "busy"),
    "queries.planner.build_share": ("queries.planner.build", "busy"),
    "queries.range.busy_share": ("queries.range", "busy"),
    "queries.knn.busy_share": ("queries.knn", "busy"),
    "queries.path.busy_share": ("queries.path", "busy"),
    "baselines.spanning_forest.bootstrap_share": ("baselines.spanning_forest.bootstrap", "busy"),
    "serve.pipeline.apply_busy_share": ("serve.pipeline.apply", "busy"),
    "serve.pipeline.apply_self_share": ("serve.pipeline.apply", "self"),
    "serve.pipeline.coverage_busy_share": ("serve.pipeline.coverage", "busy"),
    "models.rls.update_busy_share": ("models.rls.update", "busy"),
    "core.maintenance.update_busy_share": ("core.maintenance.update", "busy"),
    "serve.broker.publish_busy_share": ("serve.broker.publish", "busy"),
}


def layer_metrics(run: Run, wall: float) -> dict[str, float]:
    """Every per-layer metric; 0 where this workload skips the layer."""
    rec = run.rec
    out: dict[str, float] = {}
    for metric, (name, kind) in SHARES.items():
        seconds = rec.busy(name) if kind == "busy" else rec.self_time(name)
        out[metric] = seconds / wall
    counters = run.counters
    messages = counters.get("core.elink.messages", 0)
    out.update(
        {
            "geometry.topology.edges": counters.get("geometry.topology.edges", 0),
            "core.elink.clusters": counters.get("core.elink.clusters", 0),
            "core.elink.messages": messages,
            "core.elink.repair_messages": counters.get("core.elink.repair_messages", 0),
            "core.elink.repair_share": (
                counters.get("core.elink.repair_messages", 0) / messages if messages else 0.0
            ),
            "core.elink.vectorized": rec.flags.get("vectorized", 0),
            "sim.kernel.pushes": counters.get("sim.kernel.pushes", 0),
            "sim.stats.drops": counters.get("sim.stats.drops", 0),
            "sim.faults.dead": counters.get("sim.faults.dead", 0),
            "sim.network.route_calls": rec.calls.get("sim.network.route", 0),
            "core.maintenance.messages": counters.get("core.maintenance.messages", 0),
            "serve.applied": counters.get("serve.applied", 0),
        }
    )
    for key in (
        "queries.range.calls", "queries.knn.calls", "queries.path.calls",
        "queries.range.messages_per_query", "queries.knn.messages_per_query",
        "queries.path.messages_per_query", "queries.planner.plans.mtree",
        "queries.planner.plans.backbone", "queries.planner.plans.flood",
        "queries.planner.cost_ratio", "queries.result_cache.hit_ratio",
    ):
        out[key] = counters.get(key, 0)
    return out


def run_workload(
    name: str, seed: int, seconds: float, *, trace: bool, profile: str = "default",
    trace_out: Path | None = None,
) -> dict[str, Any]:
    """Run one workload in this process and return its result record.

    An operation that raises ends the workload and counts as one failed
    operation; the record still carries every check and metric reached
    before it.  A traced run whose wrappers cannot be installed raises.
    """
    recorder = spans.Recorder() if trace else None
    run = Run(name, seed, seconds, profile, recorder)
    start = now()
    with spans.installed(recorder) if trace else nullcontext():
        try:
            RUNNERS[name](run)
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            run.check(False, f"{type(exc).__name__}: {exc}")
    wall = now() - start
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    kernel = run.speed.kernel_s
    run.report["host_kernel_runs"] = len(kernel)
    if kernel:
        # Above 1: the host ran slower than the reference speed.
        run.report["host_slowdown_p50"] = statistics.median(kernel) / hostspeed.NOMINAL_S
    layers: dict[str, float] = {}
    if trace:
        for span_name in EXPECTED_SPANS[name]:
            run.check(recorder.calls.get(span_name, 0) > 0, f"span {span_name} never recorded")
        if name in EXPECT_VECTORIZED:
            got = recorder.flags.get("vectorized", 0)
            want = EXPECT_VECTORIZED[name]
            run.check(got == want, f"vectorised ELink engaged={got}, expected {want}")
        layers = layer_metrics(run, wall - run.speed.spent_s)
        run.report["self_s"] = {
            span_name: recorder.self_time(span_name)
            for span_name in sorted(recorder.calls)
        }
        if trace_out is not None:
            trace_out = trace_out.resolve()
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text(json.dumps({"workload": name, "seed": seed, **recorder.export()}))
            run.report["trace_file"] = str(trace_out.relative_to(ROOT))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "profile": profile,
        "trace": int(trace),
        "wall_s": wall,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "e2e": run.e2e,
        "layers": layers,
        "counters": run.counters,
        "report": run.report,
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point: run one workload, print its record as the last line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    import_repro()
    record = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        profile="smoke" if args.smoke else "default",
        trace_out=args.trace_out,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
