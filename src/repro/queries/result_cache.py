"""Per-query result cache with maintenance-driven generation invalidation.

:class:`QueryResultCache` memoizes planned query answers in memory under a
content-addressed key (:meth:`QueryResultCache.key`): a SHA-256 over the
operation name and its canonicalized parameters (:func:`canonicalize`) —
query feature arrays included — so two textually different but
semantically identical requests share one entry.  No key outlives the
process, so keys carry no version.

**Invalidation contract.**  Every entry records the *structure generation*
it was computed at.  :class:`~repro.core.maintenance.MaintenanceSession`
bumps its ``generation`` counter whenever cluster membership or a
propagated root feature changes (detach/merge/singleton outcomes, root
broadcasts, node removal); silent feature drift within the slack Δ does
**not** bump it.  When the cache observes a newer generation it drops
every entry from older generations before answering — so a cached answer
is never served across a structural change (0 stale answers), while
answers served within a generation are at most Δ-stale in feature space,
the same bounded-staleness window the maintenance protocol itself grants
(the spatial-correlation accuracy model of arXiv:1108.2644 is the
motivation for serving such bounded-error answers).

Counters (when a metrics registry is attached): ``queries.cache.hits``,
``queries.cache.misses``, ``queries.cache.invalidations`` (entries
dropped by generation sweeps) and ``queries.cache.evictions`` (LRU
capacity evictions).  The planner mirrors hits/misses/invalidations into
``queries.*`` trace events for ``repro trace --queries``.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from repro.obs.metrics import MetricsRegistry

#: Default LRU capacity, in entries.  Query results are small (match-id
#: sets plus plan metadata), so a few thousand entries cover a zipfian
#: working set while bounding memory.
DEFAULT_CAPACITY = 4096


def canonicalize(value: Any) -> Any:
    """Reduce *value* to a deterministic JSON-able structure for hashing.

    Scalars pass through (floats via ``repr`` so 0.1 and 0.1000...1
    differ), mappings are sorted by key, sequences keep order, and numpy
    arrays collapse to (dtype, shape, sha256 of their bytes) — content
    addressing without embedding megabytes into the key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ("f", repr(value))
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return (
            "ndarray",
            str(data.dtype),
            list(data.shape),
            hashlib.sha256(data.tobytes()).hexdigest(),
        )
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if isinstance(value, Mapping):
        return ("map", sorted((repr(k), canonicalize(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("seq", [canonicalize(v) for v in value])
    raise TypeError(f"cannot canonicalize {type(value).__name__} for a cache key")


class QueryResultCache:
    """In-memory LRU of query answers, invalidated by structure generation.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries; least-recently-used entries
        are evicted beyond it.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving the
        ``queries.cache.*`` counters.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *, metrics: MetricsRegistry | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._metrics = metrics
        #: key -> (generation, value); insertion order doubles as LRU order.
        self._entries: "OrderedDict[str, tuple[int, Any]]" = OrderedDict()
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def key(
        self,
        op: str,
        params: Mapping[str, Any],
        context: Mapping[str, Any] | None = None,
    ) -> str:
        """Content-addressed key for *op* with canonicalized *params*.

        *context* is the degraded-topology context the answer was (or
        would be) computed under — the planner passes its ``dead`` set
        and ``root_replacements`` mapping.  It is hashed into the key, so
        a fault-free answer can never be served for a degraded query (or
        vice versa): the two live under different keys.  ``None`` (the
        fault-free default) hashes exactly as before the context existed.
        """
        if context:
            params = {**params, "__degraded__": context}
        payload = json.dumps(
            {"op": op, "params": canonicalize(params)}, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def observe_generation(self, generation: int) -> int:
        """Adopt *generation*, sweeping entries from older generations.

        Returns the number of entries invalidated.  Generations never go
        backwards; observing an older value is a no-op (a lagging caller
        must not resurrect swept entries).
        """
        if generation <= self.generation:
            return 0
        self.generation = generation
        stale = [k for k, (gen, _value) in self._entries.items() if gen < generation]
        for k in stale:
            del self._entries[k]
        if stale:
            self.invalidations += len(stale)
            self._count("queries.cache.invalidations", len(stale))
        return len(stale)

    def get(self, key: str) -> tuple[bool, Any]:
        """(hit, value); a hit refreshes the entry's LRU position."""
        entry = self._entries.get(key)
        if entry is None or entry[0] < self.generation:
            # A same-key entry from an older generation can only linger if
            # the sweep was bypassed; treat it as a miss, never serve it.
            self.misses += 1
            self._count("queries.cache.misses")
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        self._count("queries.cache.hits")
        return True, entry[1]

    def put(self, key: str, value: Any) -> None:
        """Store *value* at the current generation, evicting LRU overflow."""
        self._entries[key] = (self.generation, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("queries.cache.evictions")

    def stats(self) -> dict[str, int]:
        """Session counters plus current size, JSON-ready."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "generation": self.generation,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)
