"""Unit tests for the serve layer: sources, broker backpressure policies
and close, the ingest retry/timeout envelope, atomic checkpoints, the
supervisor's restart/budget envelope, the chaos driver, the clustering
pipeline's checkpoint round-trip, the query service, and the snapshot
equivalence differ."""

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    Broker,
    ChaosDriver,
    CheckpointManager,
    ClusteringPipeline,
    ClusteringService,
    NotReadyError,
    POLICY_BLOCK,
    POLICY_SHED_OLDEST,
    QueryService,
    Reading,
    ReplaySource,
    ReplaySpec,
    ReplayStream,
    ServeContext,
    ServiceConfig,
    StageCrash,
    Supervisor,
)
from repro.serve import ingest
from repro.serve.ingest import READINGS_TOPIC, IngestStage
from repro.serve.readings import FileSource, TransientSourceError
from repro.sim.faults import FaultPlan
from repro.verify.serve_check import diff_snapshots


def _ctx():
    return ServeContext(tracer=Tracer(), metrics=MetricsRegistry())


def _stream(n=8, rounds=20, seed=3):
    return ReplayStream(ReplaySpec(n=n, rounds=rounds, seed=seed))


# ----------------------------------------------------------------------
# reading sources
# ----------------------------------------------------------------------
def test_replay_stream_is_deterministic():
    a, b = _stream(), _stream()
    assert (a.values == b.values).all()
    assert a.nodes == b.nodes
    assert a.reading(17) == b.reading(17)


def test_replay_shards_partition_the_stream():
    stream = _stream(n=8, rounds=3)
    sources = [ReplaySource(stream, shard=(i, 3)) for i in range(3)]

    async def drain(source):
        out = []
        while (r := await source.next_reading()) is not None:
            out.append(r.seq)
        return out

    seqs = sorted(sum((asyncio.run(drain(s)) for s in sources), []))
    assert seqs == list(range(stream.total_readings))
    assert all(s.exhausted and s.remaining == 0 for s in sources)


def test_replay_resume_after_skips_applied_prefix():
    stream = _stream(n=4, rounds=5)
    source = ReplaySource(stream)
    # pretend the first two full rounds were applied
    last_seq = {node: 4 + k for k, node in enumerate(stream.nodes)}
    source.resume_after(last_seq)

    async def first():
        return await source.next_reading()

    reading = asyncio.run(first())
    # floor is min(last_seq) = 4, so the resumed stream starts at seq 5;
    # residual overlap (seqs 5..7 already applied) is the pipeline's job.
    assert reading.seq == 5


def test_file_source_emits_malformed_lines_as_nan(tmp_path):
    path = tmp_path / "readings.jsonl"
    path.write_text(
        '{"node": 0, "value": 1.5}\nthis is not json\n{"node": 1, "value": 2.5}\n'
    )
    source = FileSource(str(path))

    async def drain():
        out = []
        while (r := await source.next_reading()) is not None:
            out.append(r)
        return out

    readings = asyncio.run(drain())
    assert [r.seq for r in readings] == [0, 1, 2]
    assert readings[1].node is None and readings[1].value != readings[1].value  # NaN
    source.resume_after({0: 0, 1: 2})
    assert source._cursor == 1  # past the smallest applied position


# ----------------------------------------------------------------------
# broker backpressure policies
# ----------------------------------------------------------------------
def test_shed_oldest_drops_head_and_coalesces_episode():
    ctx = _ctx()
    broker = Broker(ctx)
    sub = broker.subscribe("t", name="q", maxsize=2, policy=POLICY_SHED_OLDEST)

    async def scenario():
        for i in range(5):
            await broker.publish("t", i)
        survivors = [await sub.get(), await sub.get()]
        # waiting on the now-empty queue ends the shed episode
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(sub.get(), timeout=0.01)
        return survivors

    survivors = asyncio.run(scenario())
    assert survivors == [3, 4]  # oldest shed, newest kept
    assert sub.shed_total == 3
    events = [e for e in ctx.tracer.events() if e.type == "serve.shed_episode"]
    assert len(events) == 1 and events[0].data["count"] == 3


def test_block_policy_backpressures_publisher():
    ctx = _ctx()
    broker = Broker(ctx)
    sub = broker.subscribe("t", name="q", maxsize=2, policy=POLICY_BLOCK)

    async def scenario():
        published = []

        async def producer():
            for i in range(4):
                await broker.publish("t", i)
                published.append(i)

        task = asyncio.create_task(producer())
        await asyncio.sleep(0.02)
        stalled = list(published)  # producer must be parked at the bound
        got = [await sub.get() for _ in range(4)]
        await task
        return stalled, got

    stalled, got = asyncio.run(scenario())
    assert stalled == [0, 1]
    assert got == [0, 1, 2, 3]  # nothing lost under block policy
    assert sub.shed_total == 0
    assert any(e.type == "serve.backpressure" for e in ctx.tracer.events())


def test_close_drains_queued_items_then_returns_none():
    ctx = _ctx()

    async def scenario():
        broker = Broker(ctx)
        sub = broker.subscribe("t", name="q", maxsize=4)
        for i in range(3):
            await broker.publish("t", i)
        sub.close()
        return sub, [await sub.get() for _ in range(5)]

    sub, got = asyncio.run(scenario())
    assert sub.closed
    assert got == [0, 1, 2, None, None]  # FIFO first, then end of stream


def test_close_wakes_a_waiting_get():
    ctx = _ctx()

    async def scenario():
        sub = Broker(ctx).subscribe("t", name="q", maxsize=4)
        waiter = asyncio.create_task(sub.get())
        for _ in range(3):
            await asyncio.sleep(0)
        parked = not waiter.done()  # waiting on the empty queue
        sub.close()
        return parked, await asyncio.wait_for(waiter, timeout=1.0)

    parked, got = asyncio.run(scenario())
    assert parked
    assert got is None


# ----------------------------------------------------------------------
# ingest retry envelope
# ----------------------------------------------------------------------
class _ScriptedSource:
    """A replay source whose fetches first fail as scripted.

    ``failures`` fetches raise :class:`TransientSourceError`, then
    ``stall`` makes every fetch sleep that many seconds before serving.
    """

    def __init__(self, stream, *, failures=0, stall=0.0):
        self._inner = ReplaySource(stream, name="scripted")
        self.name = self._inner.name
        self.failures = failures
        self.stall = stall
        self.attempts = 0
        self.fetching = asyncio.Event()

    @property
    def exhausted(self):
        return self._inner.exhausted

    async def next_reading(self):
        self.attempts += 1
        self.fetching.set()
        if self.attempts <= self.failures:
            raise TransientSourceError(f"attempt {self.attempts}")
        if self.stall:
            await asyncio.sleep(self.stall)
        return await self._inner.next_reading()


@pytest.fixture
def quick_retries(monkeypatch):
    monkeypatch.setattr(ingest, "FETCH_TIMEOUT", 0.05)
    monkeypatch.setattr(ingest, "RETRY_BASE", 0.001)


def _ingest(stream, source, ctx):
    broker = Broker(ctx)
    sub = broker.subscribe(READINGS_TOPIC, name="pipeline", maxsize=stream.total_readings)
    stage = IngestStage(
        source, broker, ctx, known_nodes=stream.nodes, stop_event=asyncio.Event()
    )
    return stage, sub


def _retry_events(ctx):
    return [e.data for e in ctx.tracer.events() if e.type == "serve.source_retry"]


def test_ingest_retries_transient_errors_then_publishes_everything(quick_retries):
    stream, ctx = _stream(n=4, rounds=3), _ctx()

    async def scenario():
        source = _ScriptedSource(stream, failures=2)
        stage, sub = _ingest(stream, source, ctx)
        await stage.run()
        return stage, [(await sub.get()).seq for _ in range(len(sub))]

    stage, seqs = asyncio.run(scenario())
    assert stage.published == stream.total_readings
    assert seqs == list(range(stream.total_readings))
    assert ctx.metrics.counter("serve.source_retries").value == 2
    assert [e["attempt"] for e in _retry_events(ctx)] == [1, 2]
    assert all("TransientSourceError" in e["error"] for e in _retry_events(ctx))


def test_ingest_crashes_after_max_retries_of_timed_out_fetches(quick_retries):
    stream, ctx = _stream(n=4, rounds=3), _ctx()

    async def scenario():
        source = _ScriptedSource(stream, stall=60.0)  # outlives every timeout
        stage, _ = _ingest(stream, source, ctx)
        with pytest.raises(StageCrash, match="retries exhausted") as crash:
            await asyncio.wait_for(stage.run(), timeout=10.0)
        return source, stage, crash.value

    source, stage, crash = asyncio.run(scenario())
    assert isinstance(crash.__cause__, asyncio.TimeoutError)
    assert source.attempts == ingest.MAX_RETRIES + 1 == 5
    assert [e["attempt"] for e in _retry_events(ctx)] == [1, 2, 3, 4]
    assert stage.published == 0


def test_cancelling_a_stage_in_a_slow_fetch_is_not_retried(quick_retries, monkeypatch):
    monkeypatch.setattr(ingest, "FETCH_TIMEOUT", 5.0)  # the cancel lands first
    stream, ctx = _stream(n=4, rounds=3), _ctx()

    async def scenario():
        source = _ScriptedSource(stream, stall=60.0)
        stage, _ = _ingest(stream, source, ctx)
        task = asyncio.create_task(stage.run())
        await source.fetching.wait()
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        await asyncio.sleep(0.02)  # a retry would have started by now
        return source, task

    source, task = asyncio.run(scenario())
    assert task.cancelled()
    assert source.attempts == 1
    assert "serve.source_retries" not in ctx.metrics
    assert _retry_events(ctx) == []
    assert not any(e.type == "serve.source_end" for e in ctx.tracer.events())


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_round_trip_and_pruning(tmp_path):
    manager = CheckpointManager(tmp_path, _ctx(), keep=2)
    for seq in (10, 20, 30):
        manager.write({"x": seq, "blob": list(range(seq))}, seq=seq)
    files = sorted(p.name for p in tmp_path.glob("ckpt-*.bin"))
    assert len(files) == 2  # pruned to keep
    header, state = manager.load_latest()
    assert header["seq"] == 30 and state == {"x": 30, "blob": list(range(30))}


def test_checkpoint_corruption_falls_back_to_older(tmp_path):
    ctx = _ctx()
    manager = CheckpointManager(tmp_path, ctx, keep=3)
    manager.write({"x": 1}, seq=1)
    manager.write({"x": 2}, seq=2)
    newest = sorted(tmp_path.glob("ckpt-*.bin"))[-1]
    payload = newest.read_bytes()
    newest.write_bytes(payload[: len(payload) - 10])  # truncate the pickle
    header, state = manager.load_latest()
    assert header["seq"] == 1 and state == {"x": 1}
    assert any(e.type == "serve.checkpoint_rejected" for e in ctx.tracer.events())


def test_checkpoint_load_none_when_empty(tmp_path):
    assert CheckpointManager(tmp_path / "missing", _ctx()).load_latest() is None


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
def test_supervisor_restarts_until_stage_succeeds():
    ctx = _ctx()
    attempts = []

    async def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise StageCrash("transient")

    async def scenario():
        sup = Supervisor(ctx, crash_budget=5, backoff_base=0.001)
        sup.add("flaky", flaky)
        sup.start()
        for _ in range(200):
            if sup.all_done(["flaky"]):
                break
            await asyncio.sleep(0.01)
        await sup.cancel()
        return sup

    sup = asyncio.run(scenario())
    assert len(attempts) == 3
    assert sup.restart_counts()["flaky"] == 2
    assert not sup.failed.is_set()


def test_supervisor_crash_budget_fails_critical_stage():
    ctx = _ctx()

    async def doomed():
        raise StageCrash("always")

    async def scenario():
        sup = Supervisor(ctx, crash_budget=2, backoff_base=0.001)
        sup.add("doomed", doomed, critical=True)
        sup.start()
        await asyncio.wait_for(sup.failed.wait(), timeout=5.0)
        await sup.cancel()
        return sup

    sup = asyncio.run(scenario())
    assert sup.stages["doomed"].failed
    assert any(e.type == "serve.stage_giveup" for e in ctx.tracer.events())


def test_supervisor_noncritical_giveup_does_not_fail_service():
    ctx = _ctx()

    async def doomed():
        raise StageCrash("always")

    async def scenario():
        sup = Supervisor(ctx, crash_budget=1, backoff_base=0.001)
        sup.add("doomed", doomed, critical=False)
        sup.start()
        for _ in range(200):
            if sup.stages["doomed"].failed:
                break
            await asyncio.sleep(0.01)
        await sup.cancel()
        return sup

    sup = asyncio.run(scenario())
    assert sup.stages["doomed"].failed
    assert not sup.failed.is_set()


# ----------------------------------------------------------------------
# chaos driver
# ----------------------------------------------------------------------
def test_chaos_events_fire_exactly_once():
    plan = FaultPlan()
    plan.stage_crash(10, "pipeline").stage_crash(20, "pipeline")
    plan.source_stall(15, "src-0", 0.25)
    plan.malform(12, "src-1")
    driver = ChaosDriver(plan, _ctx())
    assert driver.stage_crashes("pipeline", 5) == []
    assert len(driver.stage_crashes("pipeline", 10)) == 1
    assert driver.stage_crashes("pipeline", 10) == []  # consumed
    assert len(driver.stage_crashes("pipeline", 99)) == 1  # catches up past 20
    assert driver.stalls("src-1", 99) == []  # wrong source
    [(_, duration)] = driver.stalls("src-0", 15)
    assert duration == 0.25
    assert driver.malformed("src-1", 12) is True
    assert driver.malformed("src-1", 12) is False
    assert driver.pending == 0


# ----------------------------------------------------------------------
# pipeline: idempotence and checkpoint round-trip
# ----------------------------------------------------------------------
def _feed(pipeline, stream, start, stop):
    for seq in range(start, stop):
        pipeline.apply(stream.reading(seq))


def test_pipeline_skips_replayed_readings():
    stream = _stream(n=4, rounds=6)
    pipeline = ClusteringPipeline(stream.topology, _ctx(), delta=0.35, slack=0.05, bootstrap_rounds=3)
    _feed(pipeline, stream, 0, 12)
    applied = pipeline.applied_total
    _feed(pipeline, stream, 0, 12)  # replay the whole prefix
    assert pipeline.applied_total == applied
    assert pipeline.apply(stream.reading(3)) == "skipped"


def test_pipeline_builds_clustering_after_bootstrap():
    stream = _stream(n=6, rounds=10)
    ctx = _ctx()
    pipeline = ClusteringPipeline(stream.topology, ctx, delta=0.35, slack=0.05, bootstrap_rounds=4)
    _feed(pipeline, stream, 0, stream.total_readings)
    assert pipeline.num_clusters > 0
    assert any(e.type == "serve.clustered" for e in ctx.tracer.events())
    assert ctx.metrics.counter("serve.maintenance_updates").value > 0


def test_coverage_gauge_has_one_writer(tmp_path, monkeypatch):
    """Applying readings never scans coverage: the service's watch loop
    alone sets the ``serve.coverage`` gauge, and ``--metrics-out`` still
    holds the final coverage."""
    calls = []
    coverage = ClusteringPipeline.coverage

    def counted(pipeline):
        calls.append(pipeline)
        return coverage(pipeline)

    monkeypatch.setattr(ClusteringPipeline, "coverage", counted)
    stream = _stream(n=6, rounds=10)
    pipeline = ClusteringPipeline(stream.topology, _ctx(), delta=0.35, slack=0.05, bootstrap_rounds=4)
    _feed(pipeline, stream, 0, stream.total_readings)
    assert pipeline.applied_total == stream.total_readings
    assert calls == []

    metrics = tmp_path / "metrics.json"
    service = ClusteringService(
        ServiceConfig(
            n=16, seed=7, rounds=60, delta=0.35, slack=0.05, bootstrap_rounds=8,
            metrics_out=str(metrics),
        )
    )
    assert service.run() == 0
    final = json.loads(metrics.read_text())["serve.coverage"]
    assert final == {"type": "gauge", "value": coverage(service.pipeline)}


@pytest.mark.parametrize("cut_round", [5, 11, 16])
def test_pipeline_checkpoint_roundtrip_equivalence(cut_round):
    """Restore-at-any-point property: cutting the stream at an arbitrary
    reading, round-tripping the state dict, and replaying the rest (with
    overlap) must reproduce the uninterrupted run's snapshot digest."""
    stream = _stream(n=6, rounds=20)
    cut = cut_round * 6 + 3  # mid-round cuts too

    straight = ClusteringPipeline(stream.topology, _ctx(), delta=0.35, slack=0.05, bootstrap_rounds=6)
    _feed(straight, stream, 0, stream.total_readings)

    first = ClusteringPipeline(stream.topology, _ctx(), delta=0.35, slack=0.05, bootstrap_rounds=6)
    _feed(first, stream, 0, cut)
    state = first.state_dict()

    resumed = ClusteringPipeline(stream.topology, _ctx(), delta=0.35, slack=0.05, bootstrap_rounds=6)
    resumed.restore_state(state)
    overlap = max(0, cut - 7)  # resume WITH overlap: idempotence must absorb it
    _feed(resumed, stream, overlap, stream.total_readings)

    a, b = straight.snapshot(), resumed.snapshot()
    assert a["digest"] == b["digest"], diff_snapshots(a, b)
    assert resumed.applied_total == straight.applied_total


def test_pipeline_rejects_foreign_checkpoints():
    small, big = _stream(n=4, rounds=3), _stream(n=6, rounds=3)
    pipeline = ClusteringPipeline(big.topology, _ctx(), delta=0.35, slack=0.05)
    donor = ClusteringPipeline(small.topology, _ctx(), delta=0.35, slack=0.05)
    with pytest.raises(ValueError, match="n=4"):
        pipeline.restore_state(donor.state_dict())
    bad = donor.state_dict()
    bad["schema"] = 99
    with pytest.raises(ValueError, match="schema"):
        donor.restore_state(bad)


# ----------------------------------------------------------------------
# query service
# ----------------------------------------------------------------------
def test_query_service_not_ready_then_answers():
    stream = _stream(n=6, rounds=12)
    ctx = _ctx()
    pipeline = ClusteringPipeline(stream.topology, ctx, delta=0.35, slack=0.05, bootstrap_rounds=4)
    service = QueryService(pipeline, ctx)
    assert service.dispatch({"op": "range", "q": [0.5], "radius": 0.1})["error"] == "not_ready"
    with pytest.raises(NotReadyError):
        service.range_query([0.5], 0.1)
    _feed(pipeline, stream, 0, stream.total_readings)
    response = service.dispatch({"op": "range", "q": [0.5], "radius": 0.2})
    assert "matches" in response and response["staleness"]["updates_behind"] == 0
    health = service.dispatch({"op": "healthz"})
    assert health["ready"] and health["clusters"] > 0
    nodes = pipeline.nodes
    path = service.dispatch(
        {"op": "path", "source": str(nodes[0]), "destination": str(nodes[1]),
         "danger": [10.0], "gamma": 0.5}
    )
    assert "path" in path and "drops" in path
    assert service.dispatch({"op": "nope"})["error"].startswith("unknown op")
    assert service.dispatch({"op": "range", "q": [0.5]})["error"] == "bad_request"
    snapshot = service.dispatch({"op": "snapshot"})
    assert snapshot["digest"]


# ----------------------------------------------------------------------
# snapshot differ
# ----------------------------------------------------------------------
def test_diff_snapshots_reports_divergences():
    stream = _stream(n=4, rounds=8)
    pipeline = ClusteringPipeline(stream.topology, _ctx(), delta=0.35, slack=0.05, bootstrap_rounds=3)
    _feed(pipeline, stream, 0, stream.total_readings)
    a = pipeline.snapshot()
    assert diff_snapshots(a, json.loads(json.dumps(a))).equivalent

    b = json.loads(json.dumps(a))
    b["digest"] = "0" * 64
    b["state"]["applied_total"] += 1
    diff = diff_snapshots(a, b)
    assert not diff.equivalent
    assert any("applied_total" in d for d in diff.divergences)
    assert "NOT equivalent" in str(diff)
