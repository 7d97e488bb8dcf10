"""Vectorised implicit ELink rounds (DESIGN.md §8.2).

The handler engine in :mod:`repro.core.elink` runs one Python method per
delivered message.  On the jitter-free, loss-free, untraced fast path that
is pure overhead: every ``expand`` copy in a broadcast cohort is charged
the same way, filtered by the same δ/2 distance test, and — for the vast
majority of copies — discarded.  This module runs implicit signalling
(§4) only: it processes an entire same-timestamp cohort as numpy
operations over per-round arrays and runs per-node Python only for the
*eligible* residue (joins and switches).  Explicit signalling (§5,
Fig 18) has one implementation, the handler engine.

Correctness strategy — exact event-order mirroring, not approximation.
An implicit handler run pushes two kinds of kernel entry: each
sentinel's start timer, all scheduled before the run, and the deliveries
of its ``expand`` broadcasts.  This module mirrors both on the same
kernel (via ``post_at``) at the same float timestamps:

- Start signals are one kernel entry per sentinel level, posted before
  the run, as the handler engine's per-sentinel timers all fire at the
  level's start time.  An implicit election pushes nothing but its
  broadcast one hop later, so a level's elections append their rows to
  that timestamp's batch in one step; the rows come from the quadtree's
  level arrays and their election state is written as arrays.
- ``expand`` broadcasts become *batch* entries: one kernel entry
  carrying the cohort's broadcaster rows.  Every start entry is posted
  before the first batch, and nothing but batches is pushed during the
  run, so each timestamp has at most one open batch and it is always the
  tail entry at that time: every broadcast pushed for that time joins
  it, which keeps the global ``(time, seq)`` sequence identical to the
  handler engine — the same sealing argument the network's delivery
  cohorts use.

Within a batch, eligible rows are processed in row order — exactly the
order the network delivers the handler engine's per-neighbour ``send``
copies — reading and mutating the same protocol state (arrays instead of
``ELinkNode`` attributes).
Distances are computed vectorised; for 1-d features ``EuclideanMetric``
is an elementwise ``abs(a - b)``, bit-identical to the scalar path.

Legality gate (:func:`try_run_vectorized` returns ``None`` and the caller
falls back to the handler engine): implicit signalling only, no failure
detection, no fault injector, no tracer (a tracer needs per-message
events — traced "vectorized" runs *are* handler runs), no jitter or
loss, an unmutated network with no dead nodes, plain Euclidean 1-d
features, and an idle kernel.  The gate alone picks the engine.

The engine ends by handing its final node state
(:class:`~repro.core.elink.FinalState`: root and parent positions over
its node list, and its join-time and switch columns as they are) back to
:func:`~repro.core.elink.run_elink`, which assembles the clustering and
the result for both engines in one place.

Certification: the engine-equivalence suite diffs clusterings, parents,
``MessageStats`` and timing against the handler engine; traced runs take
the handler path by construction, so trace byte-identity is the identity
of that fallback.
"""

from __future__ import annotations

import math
from array import array
from operator import attrgetter
from typing import TYPE_CHECKING, Hashable, Mapping, NamedTuple

import numpy as np

from repro.core.elink import ELinkConfig, FinalState, implicit_schedule
from repro.features.metrics import EuclideanMetric, Metric
from repro.geometry.quadtree import QuadTreeDecomposition
from repro.geometry.topology import Topology, adjacency_arrays
from repro.sim.messages import CATEGORY_CLUSTERING
from repro.sim.network import HOP_DELAY, Network

if TYPE_CHECKING:
    from repro.sim.faults import FaultInjector

__all__ = ["try_run_vectorized"]


class _Views(NamedTuple):
    """Numpy views over a :class:`_VectorRun`'s election state columns."""

    clustered: np.ndarray
    is_root: np.ndarray
    root_idx: np.ndarray
    root_val: np.ndarray
    m_level: np.ndarray
    clustered_at: np.ndarray


class _ExpandBatch:
    """One kernel entry's worth of pending ``expand`` broadcasts.

    Columns are parallel per-*broadcaster* rows; the fire expands them to
    per-delivery arrays through the CSR adjacency.
    """

    __slots__ = ("srcs", "vals", "roots", "ms")

    def __init__(self):
        self.srcs: list[int] = []
        self.vals: list[float] = []
        self.roots: list[int] = []
        self.ms: list[int] = []


def _eligible(
    config: ELinkConfig,
    network: Network,
    metric: Metric,
    injector: "FaultInjector | None",
) -> bool:
    """Static legality of the batch path (feature shapes checked later)."""
    return (
        config.signalling == "implicit"
        and not config.failure_detection
        and injector is None
        and type(network) is Network
        and network._fast
        and network._tracer is None
        and not network._mutated
        and not network.dead_nodes
        and network.kernel.pending == 0
        and type(metric) is EuclideanMetric
    )


def try_run_vectorized(
    topology: Topology,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    config: ELinkConfig,
    *,
    quadtree: QuadTreeDecomposition,
    network: Network,
    injector: "FaultInjector | None",
) -> FinalState | None:
    """Run the batch engine if the scenario is eligible, else ``None``.

    Called by :func:`repro.core.elink.run_elink` after network/tracer/
    verifier setup.  Returns the run's final node state exactly when the
    engine ran; ``None`` means the caller proceeds down the per-message
    handler path with nothing consumed or mutated.
    """
    if not _eligible(config, network, metric, injector):
        return None
    n = topology.num_nodes
    if n == 0:
        return None
    run = _VectorRun(features, config, quadtree, network)
    if not run.load_features():
        return None  # non-1-d features: the scalar metric path owns those
    return run.run()


class _VectorRun:
    """State and event processors for one vectorised ELink run."""

    def __init__(
        self,
        features: Mapping[Hashable, np.ndarray],
        config: ELinkConfig,
        quadtree: QuadTreeDecomposition,
        network: Network,
    ):
        self.features = features
        self.config = config
        self.quadtree = quadtree
        self.network = network
        self.kernel = network.kernel
        self.stats = network.stats

        # The network's adjacency as CSR rows, neighbours in ``graph.adj``
        # order (the handler engine's delivery order).
        nodes, index, self.indptr, self.indices = adjacency_arrays(network.graph)
        self.nodes = nodes
        self.n = len(nodes)

        # Each level's sentinels as rows of this node list, from the
        # quadtree's position arrays.
        level_rows = quadtree.level_rows
        if quadtree.nodes != nodes:
            qnodes = quadtree.nodes
            row_of = np.fromiter(map(index.__getitem__, qnodes), np.int64, len(qnodes))
            level_rows = [row_of[rows] for rows in level_rows]
        self.level_rows = level_rows
        held = np.zeros(self.n, dtype=bool)
        for rows in level_rows:
            held[rows] = True
        if not held.all():  # a network node the quadtree does not hold
            raise KeyError(nodes[int(held.argmin())])

        # Fig 16 state, struct-of-arrays.  The residue loop reads and
        # writes one element at a time, so the columns are bytearrays and
        # ``array.array``s: their scalar reads cost half or less of a numpy
        # array's.  The numpy views in ``_view`` share the columns' memory
        # and write an election's rows at once; the run hands the
        # ``clustered_at`` view and a view of ``switches`` to the assembly.
        self.clustered = bytearray(self.n)
        self.is_root = bytearray(self.n)
        self.root_idx = array("q", [-1]) * self.n
        self.root_val = array("d", [0.0]) * self.n
        self.m_level = array("q", [-1]) * self.n
        self.parent_idx = array("q", [-1]) * self.n
        self.switches = array("q", [0]) * self.n
        #: When each node last joined a cluster (NaN: never).
        self.clustered_at = array("d", [math.nan]) * self.n
        self._view = _Views(
            clustered=np.frombuffer(self.clustered, dtype=np.uint8),
            is_root=np.frombuffer(self.is_root, dtype=np.uint8),
            root_idx=np.frombuffer(self.root_idx, dtype=np.int64),
            root_val=np.frombuffer(self.root_val, dtype=np.float64),
            m_level=np.frombuffer(self.m_level, dtype=np.int64),
            clustered_at=np.frombuffer(self.clustered_at, dtype=np.float64),
        )

        # Calendar: timestamp -> the open batch at that time, which every
        # broadcast pushed for that time joins until it fires.
        self._tails: dict[float, _ExpandBatch] = {}

    def load_features(self) -> bool:
        """Build the feature column; False when any feature is not 1-d.

        Float64 ndarrays of shape (1,) are used as they are, so
        ``FinalState.features`` holds the caller's objects, and their
        8-byte buffers, joined end to end, are the column.  Any other
        input is converted one node at a time, as the handler engine
        converts it.
        """
        arrays = list(map(self.features.__getitem__, self.nodes))
        if (
            set(map(type, arrays)) == {np.ndarray}
            and set(map(attrgetter("dtype"), arrays)) == {np.dtype(np.float64)}
            and set(map(attrgetter("shape"), arrays)) == {(1,)}
        ):
            feats = np.frombuffer(b"".join(arrays), dtype=np.float64)
        else:
            feats = np.empty(self.n, dtype=np.float64)
            for i, feature in enumerate(arrays):
                a = np.asarray(feature, dtype=np.float64)
                if a.shape != (1,):
                    return False
                arrays[i] = a
                feats[i] = a[0]
        self.feats = feats
        self.feats_list = feats.tolist()
        self.feature_arrays = arrays
        return True

    # ------------------------------------------------------------------
    # calendar pushes (every serial kernel push mirrored 1:1)
    # ------------------------------------------------------------------
    def _expand_tail(self, time: float) -> _ExpandBatch:
        """The batch that broadcasts pushed now for *time* join: the open
        batch at *time*, else a new kernel entry."""
        tail = self._tails.get(time)
        if tail is None:
            tail = _ExpandBatch()
            self.kernel.post_at(time, self._fire_expand, time, tail)
            self._tails[time] = tail
        return tail

    def _push_expand(self, time: float, src: int, val: float, root: int, m: int) -> None:
        tail = self._expand_tail(time)
        tail.srcs.append(src)
        tail.vals.append(val)
        tail.roots.append(root)
        tail.ms.append(m)

    # ------------------------------------------------------------------
    # Fig 16: election / join
    # ------------------------------------------------------------------
    def _make_roots(self, rows: np.ndarray, level: int) -> None:
        """Election state for the unclustered sentinels *rows* of *level*:
        each is the root of its own cluster, with its own feature and
        level, from now on (an unclustered node never had a parent, so
        ``parent_idx`` stays -1)."""
        view = self._view
        view.clustered[rows] = 1
        view.is_root[rows] = 1
        view.root_idx[rows] = rows
        view.root_val[rows] = self.feats[rows]
        view.m_level[rows] = level
        view.clustered_at[rows] = self.kernel.now

    def _join(self, i: int, via: int, val: float, root: int, m: int) -> None:
        now = self.kernel.now
        self.clustered[i] = 1
        self.root_idx[i] = root
        self.root_val[i] = val
        self.m_level[i] = m
        self.parent_idx[i] = via
        self.clustered_at[i] = now
        self._push_expand(now + HOP_DELAY, i, val, root, m)

    # ------------------------------------------------------------------
    # cohort processing: the hot path
    # ------------------------------------------------------------------
    def _fire_expand(self, time: float, batch: _ExpandBatch) -> None:
        del self._tails[time]
        indptr = self.indptr
        srcs = np.asarray(batch.srcs, dtype=np.int64)
        counts = indptr[srcs + 1] - indptr[srcs]
        cum = np.cumsum(counts)
        total = int(cum[-1]) if counts.size else 0
        if total == 0:
            return
        # One charge for the whole cohort: identical totals to one
        # single-hop record per copy (counters are additive ints).
        self.stats.charge("expand", CATEGORY_CLUSTERING, 1, hops=total)
        # CSR multi-range gather: per-delivery destination/row-origin.
        offsets = np.repeat(indptr[srcs] - (cum - counts), counts)
        dsts = self.indices[np.arange(total, dtype=np.int64) + offsets]
        origin = np.repeat(np.arange(srcs.size, dtype=np.int64), counts)
        dist = np.abs(np.asarray(batch.vals, dtype=np.float64)[origin] - self.feats[dsts])
        eligible = np.nonzero(dist <= self.config.delta / 2.0)[0]
        if eligible.size == 0:
            return
        e_dst = dsts[eligible].tolist()
        e_origin = origin[eligible].tolist()
        e_dist = dist[eligible].tolist()

        b_srcs = batch.srcs
        b_vals = batch.vals
        b_roots = batch.roots
        b_ms = batch.ms
        clustered = self.clustered
        is_root = self.is_root
        root_idx = self.root_idx
        root_val = self.root_val
        m_level = self.m_level
        switches = self.switches
        feats_list = self.feats_list
        max_switches = self.config.max_switches
        threshold = self.config.switch_threshold
        join = self._join

        # Residue: the handler decision chain, in exact delivery order.
        for k in range(len(e_dst)):
            d = e_dst[k]
            r = e_origin[k]
            if not clustered[d]:
                join(d, b_srcs[r], b_vals[r], b_roots[r], b_ms[r])
                continue
            if b_roots[r] == root_idx[d]:
                continue
            if switches[d] >= max_switches:
                continue
            if is_root[d] or b_ms[r] != m_level[d]:
                continue
            if e_dist[k] + threshold >= abs(root_val[d] - feats_list[d]):
                continue
            switches[d] += 1
            join(d, b_srcs[r], b_vals[r], b_roots[r], b_ms[r])

    # ------------------------------------------------------------------
    # start signals
    # ------------------------------------------------------------------
    def _fire_starts(self, level: int) -> None:
        """One entry per sentinel level (the serial engine's per-sentinel
        timers fire back-to-back at the same instant).

        An implicit election only sets its node's state and broadcasts
        one hop later, and nothing else is pushed between two elections,
        so the level's elections append their rows to one batch, as one
        :meth:`_push_expand` call per election would.
        """
        # A level's sentinels are distinct nodes, so the ones unclustered
        # now are the ones a per-sentinel loop would elect.
        rows = self.level_rows[level]
        rows = rows[self._view.clustered[rows] == 0]
        if not rows.size:
            return
        self._make_roots(rows, level)
        tail = self._expand_tail(self.kernel.now + HOP_DELAY)
        elected = rows.tolist()
        tail.srcs += elected
        tail.vals += self.feats[rows].tolist()
        tail.roots += elected
        tail.ms += [level] * len(elected)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> FinalState:
        """Post the start signals, drain the kernel; the final node state."""
        kernel = self.kernel
        n = self.n
        depth = self.quadtree.depth

        starts = implicit_schedule(n, depth, self.config.gamma)
        now = kernel.now
        for level in range(len(self.level_rows)):
            kernel.post_at(now + max(starts[level] - now, 0.0), self._fire_starts, level)

        event_budget = 200 * n * (depth + 2) + 10_000
        self.network.run(max_events=event_budget)

        return FinalState(
            nodes=self.nodes,
            roots=np.array(self.root_idx, dtype=np.int64),
            parents=np.array(self.parent_idx, dtype=np.int64),
            features=self.feature_arrays,
            clustered_at=self._view.clustered_at,
            switches=np.frombuffer(self.switches, dtype=np.int64),
            protocol_done=(),
        )
