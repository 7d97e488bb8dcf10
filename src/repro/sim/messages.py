"""Message types and the communication cost model (paper §8.2).

The paper measures communication as the *total number of messages
exchanged*, where "a message can transmit a single coefficient or a data
value".  We therefore attach to every :class:`Message` a ``values`` count —
the number of scalar values it carries (a k-coefficient feature costs k; a
pure control signal costs 1) — and charge ``values × hops`` toward the
message total when it travels.

Message kinds mirror the paper's protocol vocabulary:

- ``expand`` — ELink cluster-expansion offer carrying the root feature
  (Fig 16).
- ``ack1`` / ``ack2`` — cluster-tree child announcement / subtree-completion
  (Fig 18).
- ``phase1`` / ``phase2`` / ``start`` — the explicit-signalling quadtree
  synchronization (Fig 18).
- query/update kinds (``query``, ``result``, ``update``, ...) used by the
  index, query and maintenance layers.

Each message also carries a ``category`` used to aggregate statistics
(clustering vs. synchronization vs. querying vs. update handling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

#: Cost categories used for reporting.
CATEGORY_CLUSTERING = "clustering"
CATEGORY_SYNC = "sync"
CATEGORY_QUERY = "query"
CATEGORY_UPDATE = "update"
CATEGORY_DATA = "data"
CATEGORY_REPAIR = "repair"

_DEFAULT_CATEGORIES = {
    "expand": CATEGORY_CLUSTERING,
    "ack1": CATEGORY_CLUSTERING,
    "ack2": CATEGORY_CLUSTERING,
    "phase1": CATEGORY_SYNC,
    "phase2": CATEGORY_SYNC,
    "start": CATEGORY_SYNC,
    "query": CATEGORY_QUERY,
    "result": CATEGORY_QUERY,
    "update": CATEGORY_UPDATE,
    "feature": CATEGORY_DATA,
    "raw": CATEGORY_DATA,
    # Failure detection and repair traffic (DESIGN.md §9): liveness probes,
    # parent heartbeats and sentinel-failover takeovers are charged to a
    # separate category so fault experiments can report repair overhead
    # independently of the paper's clustering/sync totals.
    "probe": CATEGORY_REPAIR,
    "hb": CATEGORY_REPAIR,
    "probe_sentinel": CATEGORY_REPAIR,
    "takeover": CATEGORY_REPAIR,
}


@dataclass(slots=True)
class Message:
    """A protocol message.

    Parameters
    ----------
    kind:
        Protocol message type (``"expand"``, ``"ack2"``, ...).
    src, dst:
        Node identifiers.  ``dst`` is the final recipient; multi-hop
        delivery is handled (and charged) by the network layer.
    payload:
        Arbitrary protocol data; never inspected by the network layer.
    values:
        Number of scalar values the message carries, for cost accounting.
    category:
        Cost-reporting bucket; inferred from ``kind`` when omitted.
    """

    kind: str
    src: Hashable
    dst: Hashable
    payload: Any = None
    values: int = 1
    category: str = field(default="")

    def __post_init__(self) -> None:
        if self.values < 1:
            raise ValueError(f"message must carry at least one value, got {self.values}")
        if not self.category:
            self.category = _DEFAULT_CATEGORIES.get(self.kind, CATEGORY_DATA)
