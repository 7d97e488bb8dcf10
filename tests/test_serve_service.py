"""Service-level acceptance tests for the live clustering service.

The three lifecycle guarantees CI certifies:

1. **SIGTERM graceful drain** — a real subprocess receiving SIGTERM stops
   intake, flushes its queues, writes a final checkpoint, and exits 0.
2. **Kill-and-resume equivalence** — a run killed mid-stream (task
   cancellation, the in-process SIGKILL analogue: no drain, no final
   checkpoint) and resumed from its newest checkpoint reaches exactly the
   snapshot digest of an uninterrupted run on the same replay source.
3. **Chaos acceptance** — with seed-deterministic stage crashes and
   source stalls injected, the service restarts its stages within the
   crash budget, surfaces the degraded coverage window as trace events,
   recovers, and still exits 0.

Below them: how the stages wait.  Ingest and pipeline alternate one
reading at a time, a reading costs no asyncio task, and the drain (or,
on the crash-budget path, cancellation) ends a pipeline stage that is
waiting on its queue.
"""

import asyncio
import collections
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ClusteringService, ServiceConfig, snapshots_equal
from repro.serve.broker import POLICY_BLOCK, POLICY_SHED_OLDEST
from repro.serve.ingest import READINGS_TOPIC
from repro.sim.faults import FaultPlan

REPO = pathlib.Path(__file__).resolve().parent.parent


def _spawn_serve(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for(condition, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.05)
    pytest.fail(message)


# ----------------------------------------------------------------------
# 1. SIGTERM graceful drain (real subprocess, real signal)
# ----------------------------------------------------------------------
def test_sigterm_drains_and_exits_zero(tmp_path):
    ckpt = tmp_path / "ckpt"
    snapshot = tmp_path / "final.json"
    # a stream long enough (64k readings at 400/s) that SIGTERM lands mid-run
    proc = _spawn_serve(
        "--n", "16", "--rounds", "4000", "--rate", "400",
        "--checkpoint-dir", str(ckpt), "--checkpoint-every", "50",
        "--snapshot-out", str(snapshot),
    )
    try:
        _wait_for(
            lambda: list(ckpt.glob("ckpt-*.bin")),
            timeout=30,
            message="service never wrote a periodic checkpoint",
        )
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "exit 0 (sigterm)" in stderr
    # the drain epilogue wrote a final checkpoint and the exit snapshot
    assert list(ckpt.glob("ckpt-*.bin"))
    assert json.loads(snapshot.read_text())["digest"]


# ----------------------------------------------------------------------
# 2. kill-and-resume snapshot equivalence
# ----------------------------------------------------------------------
def _base_config(tmp_path, **overrides):
    defaults = dict(
        n=16, seed=7, rounds=60, delta=0.35, slack=0.05, bootstrap_rounds=8
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_kill_and_resume_matches_uninterrupted(tmp_path):
    uninterrupted = ClusteringService(_base_config(tmp_path))
    assert uninterrupted.run() == 0
    reference = uninterrupted.pipeline.snapshot()

    ckpt = tmp_path / "ckpt"
    victim = ClusteringService(
        _base_config(
            tmp_path,
            rate=2500.0,  # paced, so the kill lands mid-stream
            checkpoint_dir=str(ckpt),
            checkpoint_every_readings=150,
        )
    )

    async def run_and_kill():
        task = asyncio.ensure_future(victim.run_async())
        while victim.checkpoints.writes < 2 and not task.done():
            await asyncio.sleep(0.01)
        assert not task.done(), "stream ended before the kill — slow the rate"
        # SIGKILL analogue: abrupt cancellation, no drain, no final checkpoint
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        await victim.supervisor.cancel()  # process death takes the stages too

    asyncio.run(run_and_kill())
    killed_at = victim.pipeline.applied_total
    assert 0 < killed_at < victim.stream.total_readings

    resumed = ClusteringService(
        _base_config(tmp_path, checkpoint_dir=str(ckpt), resume=True)
    )
    assert resumed.run() == 0
    recovered = resumed.pipeline.snapshot()
    assert snapshots_equal(reference, recovered), (
        f"killed at {killed_at}: {reference['digest']} != {recovered['digest']}"
    )
    # the resume actually skipped work: it did not replay the whole stream
    resumed_applied = resumed.ctx.metrics.counter("serve.applied_total").value
    assert resumed_applied < resumed.stream.total_readings


def test_resume_without_checkpoint_is_a_fresh_run(tmp_path):
    service = ClusteringService(
        _base_config(tmp_path, checkpoint_dir=str(tmp_path / "empty"), resume=True)
    )
    assert service.run() == 0
    assert service.pipeline.applied_total == service.stream.total_readings


# ----------------------------------------------------------------------
# 3. chaos acceptance: crashes + stalls at a fixed seed
# ----------------------------------------------------------------------
def test_chaos_run_recovers_and_exits_zero(tmp_path):
    plan = FaultPlan.random_service(
        seed=11,
        positions=(140, 700),
        stages=["pipeline", "ingest:src-0", "ingest:src-1"],
        stage_crashes=3,
        sources=["src-0", "src-1"],
        stalls=2,
        stall_duration=0.1,
        malformed=3,
    )
    service = ClusteringService(
        _base_config(
            tmp_path,
            rounds=60,
            sources=2,
            rate=3000.0,
            queue_size=48,
            backpressure=POLICY_SHED_OLDEST,
            chaos_plan=plan,
            backoff_base=0.02,
        )
    )
    assert service.run() == 0

    # every injected crash was absorbed by a supervised restart
    assert service.supervisor.total_restarts() == 3
    assert not service.supervisor.failed.is_set()
    counters = {
        "malformed": service.ctx.metrics.counter("serve.malformed_total").value,
        "restarts": service.ctx.metrics.counter("serve.stage_restarts").value,
    }
    assert counters == {"malformed": 3, "restarts": 3}

    # the damage was visible while it lasted: coverage dipped below 1 and
    # the degraded window closed with a recovery before exit
    types = [e.type for e in service.ctx.tracer.events()]
    assert "serve.degraded" in types
    assert types.index("serve.degraded") < types.index("serve.recovered")
    assert service.pipeline.coverage() == pytest.approx(1.0)
    assert service.pipeline.num_clusters > 0

    # health endpoint reflects the history
    health = service.health()
    assert health["status"] == "ok"
    assert sum(health["stage_restarts"].values()) == 3


def test_crash_budget_exhaustion_fails_fast(tmp_path):
    plan = FaultPlan()
    for position in (40, 50, 60, 70):
        plan.stage_crash(position, "pipeline")
    service = ClusteringService(
        _base_config(
            tmp_path, rounds=30, rate=2000.0, crash_budget=2, backoff_base=0.01,
            chaos_plan=plan,
        )
    )
    assert service.run() == 1
    assert service.supervisor.stages["pipeline"].failed
    assert any(e.type == "serve.stage_giveup" for e in service.ctx.tracer.events())


def test_crash_budget_cancels_a_pipeline_stage_waiting_on_its_queue(tmp_path):
    # The ingest stage dies for good at reading 41 while the pipeline,
    # having applied readings 0-39, waits on the empty queue.
    plan = FaultPlan()
    plan.stage_crash(40, "ingest:src-0").stage_crash(41, "ingest:src-0")
    service = ClusteringService(
        _base_config(tmp_path, crash_budget=1, backoff_base=0.01, chaos_plan=plan)
    )
    assert service.run() == 1
    pipeline = service.supervisor.stages["pipeline"]
    assert pipeline.task.cancelled() and not pipeline.done
    assert service.pipeline.applied_total == 40
    types = [e.type for e in service.ctx.tracer.events()]
    assert "serve.drain" not in types  # the crash-budget path skips the drain


def test_drain_close_ends_a_pipeline_stage_waiting_on_its_queue(tmp_path):
    service = ClusteringService(_base_config(tmp_path))
    readings = [service.stream.reading(seq) for seq in range(8)]

    async def scenario():
        service._sub = service.broker.subscribe(READINGS_TOPIC, name="pipeline")
        service.supervisor.add("pipeline", service._pipeline_stage)
        service.supervisor.start()
        for reading in readings[:5]:
            await service.broker.publish(READINGS_TOPIC, reading)
        while service.pipeline.applied_total < 5:
            await asyncio.sleep(0)
        waiting = not service.supervisor.all_done(["pipeline"])
        for reading in readings[5:]:  # queued when the drain closes the queue
            await service.broker.publish(READINGS_TOPIC, reading)
        await service._drain_epilogue([])
        return waiting

    assert asyncio.run(scenario())
    spec = service.supervisor.stages["pipeline"]
    assert service._sub.closed
    assert spec.done and not spec.task.cancelled()  # it returned, was not cancelled
    assert service.pipeline.applied_total == 8


#: Snapshot digest of the unpaced 1,024-node replay (seed 3, 16 rounds)
#: when every reading is applied in stream order.
REPLAY_1024_DIGEST = "fae1e96b605cf3a4073726b89efc4ac5a91896980b297c0bd5d6ca4a89d3bfcd"


def _replay_1024(rounds, **overrides):
    """Run the unpaced 1,024-node seed-3 replay in-process.

    Returns the service and the tasks created while it ran, counted by
    the ``__qualname__`` of the coroutine each one wraps.
    """
    service = ClusteringService(ServiceConfig(n=1024, seed=3, rounds=rounds, **overrides))
    tasks = collections.Counter()

    def factory(loop, coro, **kwargs):
        tasks[coro.__qualname__] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def main():
        asyncio.get_running_loop().set_task_factory(factory)
        return await service.run_async()

    assert asyncio.run(main()) == 0
    return service, tasks


@pytest.mark.parametrize("policy", [POLICY_BLOCK, POLICY_SHED_OLDEST])
def test_unpaced_replay_interleaves_ingest_and_pipeline(policy):
    """Ingest yields once per published reading, so the pipeline applies
    each reading before the next one is queued: an unpaced replay never
    fills the 1,024-slot queue, sheds nothing and never blocks."""
    service, _ = _replay_1024(16, backpressure=policy)
    assert service.pipeline.applied_total == 16_384
    assert service.pipeline.snapshot()["digest"] == REPLAY_1024_DIGEST
    assert "serve.shed_total" not in service.ctx.metrics
    assert "serve.backpressure_episodes" not in service.ctx.metrics


def test_serve_readings_create_no_tasks():
    """A reading costs no asyncio task: the pipeline awaits its queue, and
    ingest fetches under ``asyncio.timeout`` where that exists."""
    _, short = _replay_1024(14)
    _, long = _replay_1024(28)
    assert "Subscription.get" not in short + long
    fetches = [name for name in long if name.endswith(".next_reading")]
    if hasattr(asyncio, "timeout"):
        assert fetches == []
    for name in fetches:  # Python 3.10 fetches through wait_for's task
        del short[name], long[name]
    assert short == long, (short, long)


# ----------------------------------------------------------------------
# query API over a real socket
# ----------------------------------------------------------------------
def test_api_answers_healthz_and_range_over_tcp(tmp_path):
    service = ClusteringService(
        _base_config(tmp_path, rounds=80, rate=4000.0, port=0)
    )

    async def scenario():
        task = asyncio.ensure_future(service.run_async())
        while service.api.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        while service.pipeline.session is None and not task.done():
            await asyncio.sleep(0.01)
        assert not task.done(), "stream ended before the query — raise rounds"
        reader, writer = await asyncio.open_connection("127.0.0.1", service.api.port)

        async def ask(request):
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            return json.loads(await asyncio.wait_for(reader.readline(), timeout=5))

        health = await ask({"op": "healthz"})
        ranged = await ask({"op": "range", "q": [0.5], "radius": 0.3})
        bad = await ask({"op": "range"})
        writer.close()
        code = await task
        return health, ranged, bad, code

    health, ranged, bad, code = asyncio.run(scenario())
    assert code == 0
    assert health["ready"] is True and health["clusters"] > 0
    assert isinstance(ranged["matches"], list)
    assert ranged["staleness"]["updates_behind"] <= 500
    assert bad["error"] == "bad_request"
