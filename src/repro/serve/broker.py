"""In-process MQTT-style pub/sub broker with bounded, backpressured queues.

The live clustering service moves readings from ingest front-ends to the
pipeline stage through this broker, so tests and CI need no external
daemon.  The broker is deliberately tiny — named topics, fan-out to every
subscriber — but its queues carry the service's **backpressure policy**,
which is the part that matters for robustness:

- ``block``: a full subscriber queue makes :meth:`Broker.publish` wait
  (cooperative backpressure; the ingest stage slows to the pipeline's
  pace).  Blocked episodes surface as ``serve.backpressure`` trace
  events and the ``serve.backpressure_episodes`` counter.
- ``shed-oldest``: a full queue drops its *oldest* item to admit the new
  one — bounded memory and maximal freshness under overload, at the cost
  of lost readings.  Every shed increments ``serve.shed_total``; bursts
  coalesce into ``serve.shed_episode`` trace events (one per episode,
  carrying the count) so traces stay readable during sustained overload.

Policies are per-subscription, so a metrics tap can shed while the
pipeline subscription blocks.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from repro.serve.context import ServeContext

#: Subscriber-queue overflow policies.
POLICY_BLOCK = "block"
POLICY_SHED_OLDEST = "shed-oldest"

_POLICIES = (POLICY_BLOCK, POLICY_SHED_OLDEST)


class Subscription:
    """One subscriber's bounded queue on a topic.

    Created by :meth:`Broker.subscribe`; consumers call :meth:`get` until
    it returns ``None`` after :meth:`close`.
    """

    def __init__(self, topic: str, name: str, maxsize: int, policy: str, ctx: ServeContext):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        self.topic = topic
        self.name = name
        self.maxsize = maxsize
        self.policy = policy
        self.shed_total = 0
        self._ctx = ctx
        self._items: deque[Any] = deque()
        self._not_empty = asyncio.Event()
        self._not_full = asyncio.Event()
        self._not_full.set()
        self._shed_episode = 0  # consecutive sheds in the current burst
        self._blocked_episode = False
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """End the stream: queued items still come out, then :meth:`get`
        returns ``None``, waking a consumer already waiting."""
        self._closed = True
        self._not_empty.set()

    async def put(self, item: Any) -> None:
        """Enqueue *item* under this subscription's overflow policy."""
        if self.policy == POLICY_SHED_OLDEST:
            if len(self._items) >= self.maxsize:
                self._items.popleft()
                self.shed_total += 1
                self._shed_episode += 1
                self._ctx.metrics.counter("serve.shed_total").inc()
            self._items.append(item)
            self._not_empty.set()
            return
        # block policy: cooperative backpressure on the publisher.
        while len(self._items) >= self.maxsize:
            if not self._blocked_episode:
                self._blocked_episode = True
                self._ctx.metrics.counter("serve.backpressure_episodes").inc()
                self._ctx.emit("serve.backpressure", self.name, topic=self.topic, depth=len(self._items))
            self._not_full.clear()
            await self._not_full.wait()
        self._blocked_episode = False
        self._items.append(item)
        self._not_empty.set()

    async def get(self) -> Any:
        """Dequeue the next item, waiting until one is available; ``None``
        once the subscription is closed and empty."""
        while not self._items:
            self._flush_shed_episode()
            if self._closed:
                return None
            self._not_empty.clear()
            await self._not_empty.wait()
        item = self._items.popleft()
        if len(self._items) < self.maxsize:
            self._not_full.set()
        return item

    def _flush_shed_episode(self) -> None:
        if self._shed_episode:
            self._ctx.emit(
                "serve.shed_episode", self.name, topic=self.topic, count=self._shed_episode
            )
            self._shed_episode = 0


class Broker:
    """Named topics fanning out to bounded :class:`Subscription` queues."""

    def __init__(self, ctx: ServeContext):
        self._ctx = ctx
        self._topics: dict[str, list[Subscription]] = {}

    def subscribe(
        self,
        topic: str,
        *,
        name: str,
        maxsize: int = 1024,
        policy: str = POLICY_BLOCK,
    ) -> Subscription:
        """Create a bounded subscription on *topic* and return it."""
        sub = Subscription(topic, name, maxsize, policy, self._ctx)
        self._topics.setdefault(topic, []).append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach *sub* from its topic (no-op if already detached)."""
        subs = self._topics.get(sub.topic, [])
        if sub in subs:
            subs.remove(sub)

    async def publish(self, topic: str, item: Any) -> None:
        """Deliver *item* to every subscriber of *topic*.

        Blocking subscriptions make this await until they have room, so a
        slow consumer backpressures the publisher; shedding subscriptions
        never block.
        """
        for sub in self._topics.get(topic, ()):
            await sub.put(item)

    def depth(self, topic: str) -> int:
        """Total queued items across *topic*'s subscriptions."""
        return sum(len(sub) for sub in self._topics.get(topic, ()))
