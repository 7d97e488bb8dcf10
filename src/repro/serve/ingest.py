"""Ingest front-end: one supervised stage per reading source.

Each :class:`IngestStage` pulls readings from its (replayable) source and
publishes them onto the broker's ``readings`` topic, providing the
service's resilience envelope around untrusted input:

- **retry/timeout/backoff** — every fetch runs under a timeout
  (:data:`FETCH_TIMEOUT`, through ``asyncio.timeout``, so no task wraps
  the fetch; ``asyncio.wait_for`` on Python 3.10, which lacks it);
  timeouts and :class:`TransientSourceError`
  are retried up to :data:`MAX_RETRIES` times with exponential backoff
  from :data:`RETRY_BASE` (``serve.source_retries`` counter,
  ``serve.source_retry`` events).  Exhausted retries crash the stage so
  the supervisor takes over (restart with its own backoff, crash
  budget).
- **validation** — readings with unknown nodes or non-finite values are
  counted (``serve.malformed_total``), traced
  (``serve.reading_malformed``) and dropped before they can poison the
  pipeline.
- **chaos hooks** — a :class:`~repro.serve.chaos.ChaosDriver` can stall
  the source, corrupt a reading, skew the source clock, or crash the
  stage at exact stream positions, all seed-deterministically.

The stage keeps no state of its own beyond the source cursor, so a
supervisor restart resumes exactly where the crash happened.  It yields
to the event loop once per published reading: a fetch from an in-memory
source never suspends, so without the yield one stage would fill the
pipeline's queue before the pipeline applied a reading.
"""

from __future__ import annotations

import asyncio

from repro.serve.broker import Broker
from repro.serve.chaos import ChaosDriver
from repro.serve.context import ServeContext
from repro.serve.pipeline import finite_value
from repro.serve.readings import Reading, TransientSourceError
from repro.serve.supervisor import StageCrash

#: Broker topic carrying validated readings to the pipeline.
READINGS_TOPIC = "readings"

#: Seconds one fetch may take before it counts as a failed attempt.
FETCH_TIMEOUT = 5.0
#: Failed fetches retried before the stage crashes.
MAX_RETRIES = 4
#: Backoff before the first retry, in seconds; it doubles per attempt.
RETRY_BASE = 0.05


if hasattr(asyncio, "timeout"):

    async def _within(awaitable, seconds: float):
        """Await *awaitable* in the caller's task, or raise TimeoutError."""
        async with asyncio.timeout(seconds):
            return await awaitable

else:  # Python 3.10 has no asyncio.timeout; drop this path with 3.10
    _within = asyncio.wait_for


class IngestStage:
    """Supervised loop moving one source's readings onto the broker.

    Parameters
    ----------
    source:
        Any replayable source (``next_reading``/``exhausted``/``name``).
    known_nodes:
        Node ids the pipeline accepts; anything else is malformed.
    rate:
        Target aggregate readings/second (0 = as fast as possible).
        Pacing is by global stream position, so sharded sources stay
        roughly aligned.
    """

    def __init__(
        self,
        source,
        broker: Broker,
        ctx: ServeContext,
        *,
        known_nodes,
        stop_event: asyncio.Event,
        chaos: ChaosDriver | None = None,
        rate: float = 0.0,
    ):
        self.source = source
        self.broker = broker
        self.ctx = ctx
        self.known_nodes = set(known_nodes)
        self.stop_event = stop_event
        self.chaos = chaos
        self.rate = rate
        self.name = f"ingest:{source.name}"
        self.published = 0
        self.malformed = 0
        self._clock_skew = 0.0
        self._started_at: float | None = None

    async def _fetch(self) -> Reading | None:
        attempt = 0
        while True:
            try:
                return await _within(self.source.next_reading(), FETCH_TIMEOUT)
            except (asyncio.TimeoutError, TransientSourceError) as exc:
                attempt += 1
                self.ctx.metrics.counter("serve.source_retries").inc()
                if attempt > MAX_RETRIES:
                    raise StageCrash(f"{self.name}: retries exhausted ({exc!r})") from exc
                backoff = RETRY_BASE * 2 ** (attempt - 1)
                self.ctx.emit(
                    "serve.source_retry",
                    self.source.name,
                    source=self.source.name,
                    attempt=attempt,
                    backoff=round(backoff, 4),
                    error=repr(exc),
                )
                await asyncio.sleep(backoff)

    async def _apply_chaos(self, reading: Reading) -> Reading:
        if self.chaos is None:
            return reading
        position = reading.seq
        for crash in self.chaos.stage_crashes(self.name, position):
            raise StageCrash(f"{self.name}: injected crash at position {crash.time}")
        for _, duration in self.chaos.stalls(self.source.name, position):
            self.ctx.emit(
                "serve.source_stall",
                self.source.name,
                source=self.source.name,
                duration=duration,
                seq=reading.seq,
            )
            await asyncio.sleep(duration)
        for offset in self.chaos.skews(self.source.name, position):
            self._clock_skew += offset
            self.ctx.emit(
                "serve.clock_skew",
                self.source.name,
                source=self.source.name,
                offset=offset,
                total=self._clock_skew,
            )
        if self.chaos.malformed(self.source.name, position):
            reading = Reading(
                seq=reading.seq,
                node=reading.node,
                value=float("nan"),
                timestamp=reading.timestamp,
                source=reading.source,
            )
        return reading

    def _valid(self, reading: Reading) -> bool:
        if reading.node in self.known_nodes and finite_value(reading.value):
            return True
        self.malformed += 1
        self.ctx.metrics.counter("serve.malformed_total").inc()
        self.ctx.emit(
            "serve.reading_malformed",
            self.source.name,
            source=self.source.name,
            seq=reading.seq,
            reading_node=str(reading.node),
        )
        return False

    async def _pace(self, reading: Reading) -> None:
        if self.rate <= 0:
            return
        if self._started_at is None:
            self._started_at = self.ctx.now()
        target = reading.seq / self.rate
        delay = target - (self.ctx.now() - self._started_at)
        if delay > 0:
            await asyncio.sleep(delay)

    async def run(self) -> None:
        """Pump the source until exhaustion or a drain request.

        Crashes (injected or organic) propagate to the supervisor; the
        source cursor survives, so the restarted stage resumes in place.
        """
        while not self.stop_event.is_set():
            reading = await self._fetch()
            if reading is None:
                break
            reading = await self._apply_chaos(reading)
            if not self._valid(reading):
                continue
            if self._clock_skew:
                reading = Reading(
                    seq=reading.seq,
                    node=reading.node,
                    value=reading.value,
                    timestamp=reading.timestamp + self._clock_skew,
                    source=reading.source,
                )
            await self._pace(reading)
            await self.broker.publish(READINGS_TOPIC, reading)
            self.published += 1
            await asyncio.sleep(0)  # the pipeline applies it before the next fetch
        self.ctx.emit(
            "serve.source_end",
            self.source.name,
            source=self.source.name,
            published=self.published,
            drained=self.stop_event.is_set(),
        )
