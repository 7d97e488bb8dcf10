"""The supervised live clustering service: wiring, lifecycle, drain, resume.

:class:`ClusteringService` assembles the serve layer into one asyncio
process:

```
 sources ──► IngestStage (×k, supervised) ──► Broker["readings"] ──►
   pipeline stage (supervised) ──► ClusteringPipeline ──► QueryService/API
                                        │
                                 checkpoint stage (periodic, atomic)
```

Lifecycle contract (the part CI certifies):

- **SIGTERM/SIGINT** trigger a graceful drain: intake stops, queued
  readings flush through the pipeline, one final checkpoint is written,
  and the process exits 0.
- **SIGKILL** loses nothing durable: ``--resume`` restores the newest
  intact checkpoint, seeks the replayable sources past it, and the
  per-node ``last_seq`` skip makes the overlap idempotent — the resumed
  run's final snapshot digest equals an uninterrupted run's.
- A critical stage that exhausts its crash budget fails the service
  fast with exit code 1.

Degradation is observable, never silent: coverage and staleness gauges,
``serve.degraded``/``serve.recovered`` events on coverage transitions,
and a ``/healthz`` payload aggregating restarts, sheds and queue depth.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.api import ApiServer, QueryService
from repro.serve.broker import POLICY_BLOCK, Broker
from repro.serve.chaos import ChaosDriver
from repro.serve.checkpoint import CheckpointManager
from repro.serve.context import ServeContext
from repro.serve.ingest import READINGS_TOPIC, IngestStage
from repro.serve.pipeline import ClusteringPipeline
from repro.serve.readings import FileSource, ReplaySource, ReplaySpec, ReplayStream
from repro.serve.supervisor import StageCrash, Supervisor
from repro.sim.faults import FaultPlan

#: Service exit codes.
EXIT_OK = 0
EXIT_FAILED = 1

#: Coverage below this flips health to ``degraded`` and opens a
#: ``serve.degraded`` window (one stale node of 1,024 reads 0.99902 and
#: opens none).
DEGRADED_COVERAGE = 0.999


@dataclass
class ServiceConfig:
    """Everything a :class:`ClusteringService` needs to run."""

    #: Network size, stream seed and length (the deterministic replay spec).
    n: int = 64
    seed: int = 7
    rounds: int = 200
    density: float = 0.8
    #: Clustering threshold δ and maintenance slack Δ.
    delta: float = 0.35
    slack: float = 0.05
    #: RLS updates per node before the initial clustering is built.
    bootstrap_rounds: int = 12
    #: Ingest sources the stream is sharded across.
    sources: int = 1
    #: Pipeline subscription queue bound and overflow policy.
    queue_size: int = 1024
    backpressure: str = POLICY_BLOCK
    #: Target aggregate readings/second (0 = unpaced).
    rate: float = 0.0
    #: Checkpointing (directory + cadence in seconds and/or readings).
    checkpoint_dir: str | None = None
    checkpoint_every_s: float | None = None
    checkpoint_every_readings: int | None = None
    resume: bool = False
    #: Supervision envelope.
    crash_budget: int = 5
    backoff_base: float = 0.05
    drain_timeout: float = 30.0
    #: Query staleness bound (maintenance updates) and API port
    #: (None = no API server; 0 = ephemeral port).
    staleness_updates: int = 500
    port: int | None = None
    #: Optional JSONL file source replacing the synthetic replay stream.
    file_source: str | None = None
    #: Output artifacts (written at exit).
    trace_out: str | None = None
    metrics_out: str | None = None
    snapshot_out: str | None = None
    #: Seed-deterministic service-level fault plan (chaos testing).
    chaos_plan: FaultPlan | None = field(default=None, repr=False)


class ClusteringService:
    """One runnable, supervised live clustering service instance."""

    def __init__(self, config: ServiceConfig, *, ctx: ServeContext | None = None):
        self.config = config
        self.ctx = ctx if ctx is not None else ServeContext()
        spec = ReplaySpec(
            n=config.n, seed=config.seed, rounds=config.rounds, density=config.density
        )
        self.stream = ReplayStream(spec)
        self.topology = self.stream.topology
        self.pipeline = ClusteringPipeline(
            self.topology,
            self.ctx,
            delta=config.delta,
            slack=config.slack,
            bootstrap_rounds=config.bootstrap_rounds,
        )
        self.broker = Broker(self.ctx)
        self.chaos = ChaosDriver(config.chaos_plan, self.ctx) if config.chaos_plan else None
        self.checkpoints = (
            CheckpointManager(config.checkpoint_dir, self.ctx)
            if config.checkpoint_dir
            else None
        )
        if config.file_source:
            self.sources: list[Any] = [FileSource(config.file_source)]
        else:
            self.sources = [
                ReplaySource(self.stream, shard=(i, config.sources), name=f"src-{i}")
                for i in range(config.sources)
            ]
        self.query_service = QueryService(
            self.pipeline,
            self.ctx,
            staleness_updates=config.staleness_updates,
            health=self.health,
        )
        self.api = (
            ApiServer(self.query_service, self.ctx, port=config.port)
            if config.port is not None
            else None
        )
        self.supervisor = Supervisor(
            self.ctx, crash_budget=config.crash_budget, backoff_base=config.backoff_base
        )
        self.exit_code: int | None = None
        self.drain_reason: str | None = None
        self._stop_intake = asyncio.Event()
        self._drain = asyncio.Event()
        self._sub = None
        self._last_ckpt_time = 0.0
        self._last_ckpt_applied = 0
        self._was_degraded = False

    # ------------------------------------------------------------------
    # lifecycle controls
    # ------------------------------------------------------------------
    def request_drain(self, reason: str) -> None:
        """Begin a graceful drain (idempotent); callable from signal handlers."""
        if self._drain.is_set():
            return
        self.drain_reason = reason
        self.ctx.emit("serve.drain", reason=reason)
        self._drain.set()
        self._stop_intake.set()

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` degradation summary."""
        coverage = self.pipeline.coverage()
        degraded = coverage < DEGRADED_COVERAGE or any(
            spec.failed for spec in self.supervisor.stages.values()
        )
        return {
            "status": "degraded" if degraded else "ok",
            "applied": self.pipeline.applied_total,
            "queue_depth": self.broker.depth(READINGS_TOPIC),
            "shed_total": self._sub.shed_total if self._sub is not None else 0,
            "stage_restarts": self.supervisor.restart_counts(),
            "checkpoint_writes": self.checkpoints.writes if self.checkpoints else 0,
            "draining": self._drain.is_set(),
        }

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    async def _pipeline_stage(self) -> None:
        # Awaits the queue itself: no task and no timer per reading.  The
        # drain ends the stage by closing the subscription (get() then
        # returns the readings queued before the close, then None); on the
        # crash-budget path Supervisor.cancel() ends it instead.
        while (reading := await self._sub.get()) is not None:
            if self.chaos is not None and self.chaos.stage_crashes("pipeline", reading.seq):
                raise StageCrash(f"pipeline: injected crash at seq {reading.seq}")
            self.pipeline.apply(reading)

    async def _checkpoint_stage(self) -> None:
        cfg = self.config
        self._last_ckpt_time = self.ctx.now()
        self._last_ckpt_applied = self.pipeline.applied_total
        while not self._sub.closed:
            await asyncio.sleep(0.05)
            due_time = (
                cfg.checkpoint_every_s is not None
                and self.ctx.now() - self._last_ckpt_time >= cfg.checkpoint_every_s
            )
            due_count = (
                cfg.checkpoint_every_readings is not None
                and self.pipeline.applied_total - self._last_ckpt_applied
                >= cfg.checkpoint_every_readings
            )
            if due_time or due_count:
                self.write_checkpoint()

    def write_checkpoint(self) -> None:
        """Write one atomic checkpoint of the pipeline state now."""
        if self.checkpoints is None:
            return
        seq = max(self.pipeline.applied_seq, 0)
        self.checkpoints.write({"pipeline": self.pipeline.state_dict()}, seq=seq)
        self._last_ckpt_time = self.ctx.now()
        self._last_ckpt_applied = self.pipeline.applied_total

    def _resume(self) -> bool:
        if self.checkpoints is None:
            return False
        loaded = self.checkpoints.load_latest()
        if loaded is None:
            return False
        _, state = loaded
        self.pipeline.restore_state(state["pipeline"])
        for source in self.sources:
            source.resume_after(self.pipeline.last_seq)
        return True

    def _watch_degradation(self) -> None:
        coverage = self.pipeline.coverage()
        self.ctx.metrics.gauge("serve.coverage").set(coverage)
        self.ctx.metrics.gauge("serve.staleness").set(self.pipeline.staleness())
        self.ctx.metrics.series("serve.coverage.series").observe(
            round(self.ctx.now(), 4), coverage
        )
        degraded = coverage < DEGRADED_COVERAGE
        if degraded and not self._was_degraded:
            self.ctx.emit("serve.degraded", coverage=round(coverage, 6))
        elif self._was_degraded and not degraded:
            self.ctx.emit("serve.recovered", coverage=round(coverage, 6))
        self._was_degraded = degraded

    # ------------------------------------------------------------------
    # main run
    # ------------------------------------------------------------------
    async def run_async(self, *, install_signal_handlers: bool = False) -> int:
        """Run the service to completion; returns the process exit code."""
        cfg = self.config
        self.ctx.emit(
            "serve.start",
            n=cfg.n,
            seed=cfg.seed,
            rounds=cfg.rounds,
            sources=len(self.sources),
            backpressure=cfg.backpressure,
            resume=cfg.resume,
        )
        if cfg.resume and self._resume():
            self.ctx.emit(
                "serve.resumed",
                applied=self.pipeline.applied_total,
                seq=self.pipeline.applied_seq,
            )
        self._sub = self.broker.subscribe(
            READINGS_TOPIC,
            name="pipeline",
            maxsize=cfg.queue_size,
            policy=cfg.backpressure,
        )
        ingest_names = []
        for source in self.sources:
            stage = IngestStage(
                source,
                self.broker,
                self.ctx,
                known_nodes=self.pipeline.nodes,
                stop_event=self._stop_intake,
                chaos=self.chaos,
                rate=cfg.rate,
            )
            self.supervisor.add(stage.name, stage.run)
            ingest_names.append(stage.name)
        self.supervisor.add("pipeline", self._pipeline_stage)
        if self.checkpoints is not None and (
            cfg.checkpoint_every_s is not None or cfg.checkpoint_every_readings is not None
        ):
            self.supervisor.add("checkpoint", self._checkpoint_stage, critical=False)
        if self.api is not None:
            self.supervisor.add("api", self.api.run, critical=False)
        self.supervisor.start()

        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_drain, sig.name.lower())

        # Main watch loop: wait for drain, stream end, or critical failure.
        failed = False
        while True:
            if self.supervisor.failed.is_set():
                failed = True
                break
            if self._drain.is_set():
                break
            if self.supervisor.all_done(ingest_names):
                self.request_drain("stream_end")
                break
            self._watch_degradation()
            await asyncio.sleep(0.02)

        if failed:
            await self.supervisor.cancel()
            self.ctx.emit("serve.exit", code=EXIT_FAILED, reason="crash_budget")
            self.exit_code = EXIT_FAILED
        else:
            await self._drain_epilogue(ingest_names)
            self.ctx.emit("serve.exit", code=EXIT_OK, reason=self.drain_reason)
            self.exit_code = EXIT_OK
        self._export_artifacts()
        return self.exit_code

    async def _drain_epilogue(self, ingest_names: list[str]) -> None:
        """Stop intake, flush queues, final checkpoint (the graceful path)."""
        cfg = self.config
        self._stop_intake.set()
        deadline = self.ctx.now() + cfg.drain_timeout

        async def _await_cond(cond) -> None:
            while not cond() and self.ctx.now() < deadline:
                await asyncio.sleep(0.02)

        await _await_cond(lambda: self.supervisor.all_done(ingest_names))
        # The pipeline applies what is still queued, then its get() returns None.
        self._sub.close()
        await _await_cond(lambda: self.supervisor.all_done(["pipeline"]))
        await self.supervisor.cancel()
        self.write_checkpoint()
        self._watch_degradation()
        self.ctx.emit(
            "serve.drained",
            applied=self.pipeline.applied_total,
            queue_depth=self.broker.depth(READINGS_TOPIC),
        )

    def _export_artifacts(self) -> None:
        cfg = self.config
        if cfg.trace_out:
            self.ctx.tracer.export_jsonl(cfg.trace_out)
        if cfg.metrics_out:
            self.ctx.metrics.export_json(cfg.metrics_out)
        if cfg.snapshot_out:
            snapshot = self.pipeline.snapshot()
            Path(cfg.snapshot_out).write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )

    def run(self) -> int:
        """Blocking entry point with OS signal handling (the CLI path)."""
        return asyncio.run(self.run_async(install_signal_handlers=True))
