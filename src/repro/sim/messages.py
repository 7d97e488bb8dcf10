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
- ``leave`` — sent to the previous cluster parent when a node switches
  clusters, so the old subtree's completion accounting stays correct (the
  paper allows switching but leaves the book-keeping implicit).
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
    "leave": CATEGORY_CLUSTERING,
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


class MessageArena:
    """Columnar store of fast-path messages: int rows + a payload-ref column.

    The network's delivery cohorts keep in-flight broadcast traffic as
    *rows* — parallel columns of small ints
    (``kind_col``/``src_col``/``dst_col``/``values_col``, node ids as
    indices into a caller-supplied ``node_list``) plus a ``payload_col`` of
    references into a per-round payload arena — instead of one
    :class:`Message` object per copy.  A :class:`Message` is
    :meth:`materialize`-d lazily, only when a consumer genuinely needs the
    object: a tracer, a fault-plan drop record, or a protocol handler.  Rows that never reach such a consumer (vectorised protocol
    rounds, deliveries to dead nodes short-circuited by the caller) never
    allocate.

    Kinds and categories are interned once per arena (``kind_id``);
    payloads are appended once per broadcast block (``payload_ref``), so a
    k-neighbour flood stores one payload reference k times rather than k
    object pointers into k ``Message.payload`` slots.

    ``clear()`` resets the rows and the payload arena (kind interning
    survives — the protocol vocabulary is stable across rounds).
    """

    __slots__ = (
        "node_list",
        "kinds",
        "categories",
        "payloads",
        "kind_col",
        "src_col",
        "dst_col",
        "values_col",
        "payload_col",
        "_kind_ids",
    )

    def __init__(self, node_list: "list | None" = None):
        #: Optional index -> node id mapping used by :meth:`materialize`;
        #: callers that store raw ints (already node indices) may leave it
        #: None and map ids themselves.
        self.node_list = node_list
        self.kinds: list[str] = []
        self.categories: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.payloads: list[Any] = []
        self.kind_col: list[int] = []
        self.src_col: list[int] = []
        self.dst_col: list[int] = []
        self.values_col: list[int] = []
        self.payload_col: list[int] = []

    def __len__(self) -> int:
        return len(self.kind_col)

    def kind_id(self, kind: str, category: str = "") -> int:
        """Intern *kind* (resolving its category once) and return its id."""
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = len(self.kinds)
            self._kind_ids[kind] = kid
            self.kinds.append(kind)
            self.categories.append(category or _DEFAULT_CATEGORIES.get(kind, CATEGORY_DATA))
        return kid

    def payload_ref(self, payload: Any) -> int:
        """Append *payload* to the arena and return its reference."""
        self.payloads.append(payload)
        return len(self.payloads) - 1

    def append_block(
        self, kind_id: int, src: int, dsts: "list[int]", payload_ref: int, values: int
    ) -> tuple[int, int]:
        """Append one homogeneous broadcast block; returns its row span.

        *src*/*dsts* are node **indices**.  The block shares one payload
        reference; per-row state is four ints.  Returns ``(start, stop)``
        row bounds for a later :class:`ArenaSpan`.
        """
        start = len(self.kind_col)
        count = len(dsts)
        self.kind_col.extend([kind_id] * count)
        self.src_col.extend([src] * count)
        self.dst_col.extend(dsts)
        self.values_col.extend([values] * count)
        self.payload_col.extend([payload_ref] * count)
        return start, start + count

    def materialize(self, row: int) -> Message:
        """Build the :class:`Message` object for *row* (field-identical to
        eager construction; the fields were validated when the block was
        appended, so ``__init__`` is skipped)."""
        kid = self.kind_col[row]
        node_list = self.node_list
        message = object.__new__(Message)
        message.kind = self.kinds[kid]
        src = self.src_col[row]
        dst = self.dst_col[row]
        message.src = src if node_list is None else node_list[src]
        message.dst = dst if node_list is None else node_list[dst]
        message.payload = self.payloads[self.payload_col[row]]
        message.values = self.values_col[row]
        message.category = self.categories[kid]
        return message

    def clear(self) -> None:
        """Drop all rows and payloads (interned kinds survive)."""
        self.payloads.clear()
        self.kind_col.clear()
        self.src_col.clear()
        self.dst_col.clear()
        self.values_col.clear()
        self.payload_col.clear()


class ArenaSpan:
    """A contiguous row range of a :class:`MessageArena` inside a delivery
    cohort: the index-based stand-in for ``count`` :class:`Message` copies
    of one broadcast."""

    __slots__ = ("arena", "start", "stop")

    def __init__(self, arena: MessageArena, start: int, stop: int):
        self.arena = arena
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:
        return f"ArenaSpan({self.start}:{self.stop})"


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
