"""The ELink distributed δ-clustering algorithm (paper §3–§5, Figs 16–18).

ELink grows clusters from **sentinel sets** — the per-level leaders of a
quadtree decomposition — one level at a time: the single level-0 sentinel
expands first; once level *l* has finished, level *l+1* starts.  A sentinel
that is still unclustered elects itself cluster root and floods ``expand``
messages carrying its feature; a neighbour joins when its distance to the
root feature is at most δ/2 (triangle inequality then gives pairwise
δ-compactness).  A clustered node may *switch* to a cluster grown at the
same level when that improves its root distance by more than φ, at most
*c* times.

Two signalling techniques order the levels:

- **Implicit** (§4, synchronous networks): each sentinel at level *l*
  starts on a local timer ``T_l = Σ_{j<l} t_j`` with
  ``t_l = κ·(1 + 1/2 + … + 1/2^l)`` and ``κ = (1+γ)·√(N/2)``.
- **Explicit** (§5, asynchronous networks): completion is detected with
  ``ack1``/``ack2`` messages on the cluster tree, then synchronized through
  the quadtree with ``phase1`` (up), ``phase2`` (down) and ``start``
  messages.

Implementation note — *episodes*.  The paper allows bounded cluster
switching but leaves the completion book-keeping under switches implicit.
We make it explicit: every join opens an *episode* (parent + child counter
+ leaf timeout).  ``ack1`` increments and ``ack2`` decrements the episode
under which the child joined; a node that switches simply opens a new
episode while the old one keeps draining its subtree acks and finally
reports ``ack2`` to the old parent.  Completion detection therefore stays
exact — and deadlock-free — under arbitrary bounded switching, with no
message kinds beyond the paper's.

Two engines run the protocol: the per-message handlers below
(:class:`ELinkNode`), which run every signalling mode, and the batched
round processor of :mod:`repro.core.elink_vec`, which runs implicit
signalling whenever its legality gate passes.  Explicit signalling
(episodes, acks and the Fig 18 phase waves) is implemented once, here.
Both engines hand their final node state (:class:`FinalState`, index
arrays over the node list) to one assembly in :func:`run_elink`, which
builds the clustering, the timings and the :class:`ELinkResult` and runs
the end-of-run checks for either engine.

Because a switching node does not drag its cluster-tree subtree along, a
cluster's *membership* can in rare cases lose connectivity; the result
assembly repairs this by splitting stray components into their own clusters
(see :func:`repro.core.delta.clustering_from_arrays`, which keeps every
protocol tree that holds in one numpy pass and runs the per-root repair
only for the clusters that fail it), which keeps every emitted cluster a
valid δ-cluster and simply costs one extra cluster in the quality metric.

Failure detection and repair (DESIGN.md §9).  With
``ELinkConfig.failure_detection`` enabled (default off — the zero-fault
configuration is byte-identical to the paper protocol), explicit-mode
ELink survives fail-stop crashes injected by
:class:`repro.sim.faults.FaultInjector`:

- **ack escalation** — an episode whose leaf timeout passes with children
  outstanding probes them over the link layer (send receipts double as
  synchronous failure detection); dead children are deducted, and after
  ``ack_retries`` rounds the episode force-completes, so a dead or silent
  child can no longer stall completion detection forever.
- **parent heartbeats** — a node with an incomplete episode heartbeats its
  cluster parent; a failed heartbeat (or failed ``ack2``) roots the
  orphaned subtree at the detector, which re-expands with a *repair*
  ``expand`` carrying the dead cluster root's id so orphaned descendants
  rejoin without spending switch budget.
- **sentinel failover** — a quadtree aggregator that misses ``phase1``
  reports past a deadline probes the silent quad children; a dead child's
  cell is taken over by the next-eligible cell member (closest to the cell
  centroid, deterministic tie-break), which adopts the dead sentinel's
  quadtree role; with no eligible replacement the child is *forgiven* so
  rounds still terminate.

Observability (DESIGN.md §10, docs/OBSERVABILITY.md).  With a
:class:`repro.obs.trace.Tracer` attached (``run_elink(..., tracer=...)``
or a pre-traced :class:`Network`), every phase transition emits a typed
event — ``elink.elect`` / ``elink.join`` / ``elink.switch`` /
``elink.rejoin`` / ``elink.episode_done`` / ``elink.phase1`` /
``elink.phase2`` / ``elink.round_done`` / ``elink.orphan`` /
``elink.takeover`` / ``elink.assembled`` — alongside the network's
``msg.*`` and the injector's ``fault.*``/``repair.*`` streams.  Hooks
guard on a cached ``self._obs is not None``, so untraced runs execute the
exact pre-observability instruction stream.

Every retry loop is bounded and every give-up path force-completes, so the
protocol terminates under any crash pattern; validity is restored at
assembly time, which clusters the *surviving* subgraph and keeps each dead
root's feature as the pruning feature for its stranded members (the δ/2
guarantee survives).  Repair traffic (``probe``/``hb``/``takeover``) is
charged to a separate ``repair`` category so fault experiments can report
overhead next to the paper's clustering/sync metrics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Literal, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

import numpy as np

from repro._validation import require_non_negative, require_positive
from repro.core.delta import Clustering, clustering_from_arrays
from repro.features.metrics import Metric
from repro.geometry.quadtree import QuadTreeDecomposition
from repro.geometry.topology import Topology
from repro.sim.faults import FaultInjector
from repro.sim.messages import Message
from repro.sim.network import HOP_DELAY, Network
from repro.sim.node import ProtocolNode
from repro.sim.stats import MessageStats


@dataclass(frozen=True)
class ELinkConfig:
    """Parameters of an ELink run.

    Parameters
    ----------
    delta:
        The clustering threshold δ.
    phi:
        Minimum root-distance improvement required to switch clusters
        (paper default: 0.1·δ, applied when None).
    max_switches:
        The switch budget *c* per node (paper: 3–5, experiments use 4).
    gamma:
        Routing stretch factor used by the implicit timers (paper: 0.2–0.4).
    signalling:
        ``"implicit"`` (timer-driven, synchronous), ``"explicit"``
        (ack/phase-driven, asynchronous), or ``"unordered"`` — the §5
        thought experiment where *every* sentinel starts at once: O(√N)
        time, O(N) messages, but poorer quality from cross-level
        contention.  In unordered mode every node self-elects at t=0, so
        merging happens through switching: the level-equality guard is
        dropped and a childless singleton root may dissolve into a
        neighbouring cluster within δ/2 (joins send ``ack1`` so roots know
        whether they still have children).
    ack_window:
        Leaf-detection timeout in hop-delay units (explicit mode).  Joins
        triggered by an ``expand`` answer with ``ack1`` exactly two hops
        later, so any value in (2, 3) is exact for the unit-delay radio;
        2.5 is the default "conservative time-out" (Fig 18).
    failure_detection:
        Enable the fail-stop detection/repair layer (module docstring).
        Off by default: a zero-fault run with detection off is
        byte-identical to the paper protocol.
    ack_retries:
        Bounded-retry budget shared by the repair machinery: escalation
        rounds per stalled episode, and deadline extensions per quadtree
        round, before force-completing/forgiving.
    """

    delta: float
    phi: float | None = None
    max_switches: int = 4
    gamma: float = 0.3
    signalling: Literal["implicit", "explicit", "unordered"] = "implicit"
    ack_window: float = 2.5
    failure_detection: bool = False
    ack_retries: int = 3

    def __post_init__(self) -> None:
        require_positive(self.delta, "delta")
        if self.phi is not None:
            require_non_negative(self.phi, "phi")
        if self.max_switches < 0:
            raise ValueError(f"max_switches must be >= 0, got {self.max_switches}")
        require_non_negative(self.gamma, "gamma")
        if self.signalling not in ("implicit", "explicit", "unordered"):
            raise ValueError(
                "signalling must be 'implicit', 'explicit' or 'unordered', "
                f"got {self.signalling!r}"
            )
        if not (2.0 < self.ack_window):
            raise ValueError(f"ack_window must exceed 2 hop delays, got {self.ack_window}")
        if self.ack_retries < 1:
            raise ValueError(f"ack_retries must be >= 1, got {self.ack_retries}")

    @property
    def switch_threshold(self) -> float:
        """φ — defaults to 0.1·δ as in the paper's experiments (§8.4)."""
        return 0.1 * self.delta if self.phi is None else self.phi


@dataclass
class ELinkResult:
    """Outcome of one ELink run."""

    clustering: Clustering
    stats: MessageStats
    completion_time: float
    protocol_time: float
    total_switches: int
    repaired_components: int
    config: ELinkConfig

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the result."""
        return self.clustering.num_clusters

    @property
    def clustering_messages(self) -> int:
        """Expansion + cluster-tree ack traffic (the paper's message metric)."""
        return self.stats.category_values("clustering")

    @property
    def sync_messages(self) -> int:
        """phase1/phase2/start traffic (explicit signalling only)."""
        return self.stats.category_values("sync")

    @property
    def repair_messages(self) -> int:
        """Failure-detection/repair traffic (zero in fault-free runs)."""
        return self.stats.category_values("repair")

    @property
    def total_messages(self) -> int:
        """Total communication charged, in the paper's value-messages."""
        return self.clustering_messages + self.sync_messages + self.repair_messages

    def __repr__(self) -> str:
        return (
            f"ELinkResult(clusters={self.num_clusters}, messages={self.total_messages}, "
            f"time={self.completion_time:.1f}, mode={self.config.signalling})"
        )


@dataclass
class _Episode:
    """One membership episode: the accounting unit for ack1/ack2."""

    seq: int
    parent: Hashable | None  # None => this episode roots a cluster
    parent_episode: int | None
    children: int = 0
    timeout_passed: bool = False
    completed: bool = False
    #: Repair episodes (orphan re-expansion) never inject phase1 — the
    #: quadtree round they would report to has moved on.
    repair: bool = False
    #: The join's ack1 was not delivered (a link went down) and no failure
    #: detection reacted: the parent never counted this child, so the
    #: episode completes without an ack2.
    unacked: bool = False
    #: Which neighbours joined under this episode (failure detection only:
    #: escalation needs identities to probe; ``children`` stays the exact
    #: completion counter).
    child_ids: Counter = field(default_factory=Counter)
    #: Escalation rounds already spent on this episode.
    escalations: int = 0
    #: Outstanding-children count at the previous escalation; a decrease
    #: means the subtree is making progress and the retry budget resets.
    watermark: int = -1


class ELinkNode(ProtocolNode):
    """Per-node ELink runtime implementing Figs 16–18."""

    def __init__(
        self,
        node_id: Hashable,
        network: Network,
        feature: np.ndarray,
        *,
        metric: Metric,
        config: ELinkConfig,
        level: int,
        quad_parent: Hashable,
        quad_children: list[Hashable],
        max_level: int,
    ):
        super().__init__(node_id, network, feature)
        self.metric = metric
        self.config = config
        self.level = level
        self.quad_parent = quad_parent
        self.quad_children = list(quad_children)
        self.max_level = max_level

        # Fig 16 state.
        self.clustered = False
        self.root_id: Hashable | None = None
        self.root_feature: np.ndarray | None = None
        self.m: int | None = None  # level of the sentinel that clustered us
        self.parent: Hashable | None = None
        self.switches_used = 0
        self.is_cluster_root = False
        self.clustered_at: float | None = None

        # Episode accounting (explicit mode).
        self._episodes: dict[int, _Episode] = {}
        self._episode_seq = 0
        self._current_episode: int | None = None
        self._phase1_sent = False

        # Quadtree synchronization (explicit mode): per-round phase1 counts.
        self._phase1_received: dict[int, int] = {}

        # Failure detection and repair state (DESIGN.md §9).  All of it is
        # inert unless config.failure_detection is set.
        self._orphan_repaired = False
        self._phase1_senders: dict[int, set] = {}
        self._phase1_forgiven: dict[int, set] = {}
        self._phase1_forwarded: set[int] = set()
        self._deadline_attempts: dict[int, int] = {}
        self._taken_over: set[Hashable] = set()
        self._phase2_acted: set[int] = set()

        # Filled by the runner for protocol-termination detection.
        self.on_protocol_done = None

    # ------------------------------------------------------------------
    # signal: ELink(i)
    # ------------------------------------------------------------------
    def start_elink(self) -> None:
        """Fig 16: invoked by timer (implicit) or ``start`` message (explicit)."""
        if not self.clustered:
            self.clustered = True
            self.is_cluster_root = True
            self.root_id = self.node_id
            self.root_feature = self.feature
            self.m = self.level
            self.parent = None
            self.clustered_at = self.now
            if self._obs is not None:
                self._obs.emit(self.now, "elink.elect", self.node_id, level=self.level)
            self._open_episode(parent=None, parent_episode=None)
        elif self.config.signalling == "explicit" and not self._phase1_sent:
            # Already clustered: expansion is trivially complete for this
            # sentinel's round; report phase1 immediately (§5).
            self._send_phase1(self.level)

    # ------------------------------------------------------------------
    # episodes
    # ------------------------------------------------------------------
    def _open_episode(
        self,
        parent: Hashable | None,
        parent_episode: int | None,
        repair_of: Hashable | None = None,
    ) -> None:
        self._episode_seq += 1
        episode = _Episode(
            self._episode_seq, parent, parent_episode, repair=repair_of is not None
        )
        self._episodes[episode.seq] = episode
        self._current_episode = episode.seq
        values = int(np.atleast_1d(self.root_feature).shape[0])
        if repair_of is None:
            self.broadcast(
                "expand",
                payload=(self.root_feature, self.root_id, self.m, episode.seq),
                values=values,
            )
        else:
            # Repair expansion: the payload carries the dead cluster root's
            # id so orphaned members (still assigned to it) rejoin without
            # spending switch budget; charged as repair traffic.
            self.network.broadcast(
                self.node_id,
                "expand",
                (self.root_feature, self.root_id, self.m, episode.seq, repair_of),
                values,
                category="repair",
            )
        if self.config.signalling == "explicit":
            if parent is not None and not self.send(parent, "ack1", payload=parent_episode):
                if self.config.failure_detection:
                    # Parent crashed between its expand and our join.
                    self._on_parent_dead(episode)
                    return
                episode.unacked = True
            # The leaf timeout must cover an expand + ack1 round trip under
            # the worst-case per-hop delay (jitter-aware).
            self.set_timer(
                self.config.ack_window * self.network.max_hop_delay,
                self._episode_timeout,
                episode.seq,
            )
            if self.config.failure_detection and parent is not None:
                self.set_timer(
                    self.config.ack_window * self.network.max_hop_delay,
                    self._parent_check,
                    episode.seq,
                )
        elif self.config.signalling == "unordered" and parent is not None:
            # Unordered mode needs roots to know whether they still anchor
            # children before dissolving; joins therefore announce
            # themselves, but there is no completion machinery.
            self.send(parent, "ack1", payload=parent_episode)

    def _episode_timeout(self, seq: int) -> None:
        episode = self._episodes[seq]
        episode.timeout_passed = True
        if (
            self.config.failure_detection
            and not episode.completed
            and episode.children > 0
        ):
            # Children outstanding at the leaf timeout: begin bounded
            # escalation so a dead/silent child cannot stall us forever.
            self.set_timer(
                self.config.ack_window * self.network.max_hop_delay,
                self._escalate_episode,
                seq,
            )
        self._maybe_complete_episode(episode)

    def _escalate_episode(self, seq: int) -> None:
        """Probe outstanding children; deduct the dead; give up when the
        retry budget is spent *without progress* (the force-complete
        guarantees termination even against a live-but-silent child)."""
        episode = self._episodes[seq]
        if episode.completed or episode.children <= 0:
            return
        if 0 <= episode.children < episode.watermark:
            # ack2s arrived since the last escalation: the subtree is live
            # and draining, so the give-up budget resets.
            episode.escalations = 0
        episode.watermark = episode.children
        episode.escalations += 1
        for child in [c for c, k in episode.child_ids.items() if k > 0]:
            if not self.send(child, "probe", payload=seq):
                episode.children -= episode.child_ids.pop(child)
                self._note_repair("prune_child", child)
        if episode.children > 0:
            if episode.escalations >= self.config.ack_retries:
                # No progress across the whole retry budget: children are
                # live (probes succeeded) but silent.  Force completion:
                # membership is assembled from final node state, so only
                # the completion *accounting* is approximated.
                episode.children = 0
                episode.child_ids.clear()
            else:
                # Exponential backoff: deep subtrees legitimately take
                # O(√N) to drain; give them geometrically more room per
                # retry instead of hammering a fixed short window.
                self.set_timer(
                    self.config.ack_window
                    * self.network.max_hop_delay
                    * (2.0 ** episode.escalations),
                    self._escalate_episode,
                    seq,
                )
        self._maybe_complete_episode(episode)

    def _parent_check(self, seq: int) -> None:
        """Heartbeat the cluster parent while the episode is incomplete."""
        episode = self._episodes[seq]
        if episode.completed or episode.parent is None:
            return
        if not self.send(episode.parent, "hb", payload=seq):
            self._on_parent_dead(episode)
            return
        self.set_timer(
            self.config.ack_window * self.network.max_hop_delay,
            self._parent_check,
            seq,
        )

    def _on_parent_dead(self, episode: _Episode) -> None:
        """Cluster parent crashed: root the orphaned subtree here and
        re-expand so orphaned descendants can rejoin (once per node)."""
        episode.completed = True  # the old episode can never be acked
        if self._orphan_repaired:
            return
        self._orphan_repaired = True
        dead = episode.parent
        old_root = self.root_id
        if self._obs is not None:
            self._obs.emit(self.now, "elink.orphan", self.node_id, dead=dead, old_root=old_root)
        self.is_cluster_root = True
        self.root_id = self.node_id
        self.root_feature = self.feature
        self.parent = None
        self.clustered_at = self.now
        self._note_repair("orphan_root", dead)
        self._open_episode(parent=None, parent_episode=None, repair_of=old_root)

    def _note_repair(self, kind: str, dead: Hashable, by: Hashable | None = None) -> None:
        if self._fault_injector is not None:
            self._fault_injector.note_repair(kind, dead, self.node_id if by is None else by)

    def _maybe_complete_episode(self, episode: _Episode) -> None:
        if episode.completed or not episode.timeout_passed or episode.children > 0:
            return
        episode.completed = True
        if self._obs is not None:
            self._obs.emit(
                self.now,
                "elink.episode_done",
                self.node_id,
                seq=episode.seq,
                root=episode.parent is None,
            )
        if episode.unacked:
            return
        if episode.parent is not None:
            acked = self.send(episode.parent, "ack2", payload=episode.parent_episode)
            if not acked and self.config.failure_detection:
                self._on_parent_dead(episode)
        elif not episode.repair:
            # Root episode complete: this sentinel's cluster stopped growing.
            self._send_phase1(self.level)

    # ------------------------------------------------------------------
    # Fig 16: cluster expansion
    # ------------------------------------------------------------------
    def handle_expand(self, message: Message) -> None:
        """Fig 16: join, ignore, or switch on a cluster-expansion offer."""
        payload = message.payload
        if len(payload) == 5:
            root_feature, root_id, n, parent_episode, repair_of = payload
        else:
            root_feature, root_id, n, parent_episode = payload
            repair_of = None
        distance_to_root = self.metric.distance(root_feature, self.feature)
        if distance_to_root > self.config.delta / 2.0:
            return
        if not self.clustered:
            self._join(message.src, root_feature, root_id, n, parent_episode)
            return
        if root_id == self.root_id:
            return
        if (
            repair_of is not None
            and self.config.failure_detection
            and self.root_id == repair_of
        ):
            # Our cluster root died and a repair root is re-expanding: we
            # are orphaned, so rejoining costs no switch budget.  Propagate
            # the repair marker so deeper orphans hear it too.
            self.is_cluster_root = False
            self._join(message.src, root_feature, root_id, n, parent_episode,
                       repair_of=repair_of)
            return
        if self.switches_used >= self.config.max_switches:
            return
        if self.config.signalling == "unordered":
            # Unordered mode (§5): every node self-elected at t=0, so all
            # merging is switching.  A childless singleton root dissolves
            # into a cluster within δ/2 — but only toward a smaller root id,
            # otherwise two adjacent roots dissolve into each other
            # simultaneously and both clusters shatter (the symmetry-break
            # every id-based coordination protocol uses).  Members switch
            # on improvement with no level-equality requirement.
            if self.is_cluster_root:
                if self._total_children() > 0:
                    return
                if not _id_less(root_id, self.node_id):
                    return
            else:
                current_distance = self.metric.distance(self.root_feature, self.feature)
                if distance_to_root + self.config.switch_threshold >= current_distance:
                    return
            self.switches_used += 1
            self.is_cluster_root = False
            self._join(message.src, root_feature, root_id, n, parent_episode)
            return
        # Switch guard (Fig 16): same sentinel level, improvement above the
        # threshold, switch budget remaining — and never abandon a cluster we
        # root (that would orphan the whole cluster).
        if self.is_cluster_root or n != self.m:
            return
        current_distance = self.metric.distance(self.root_feature, self.feature)
        if distance_to_root + self.config.switch_threshold >= current_distance:
            return
        self.switches_used += 1
        self._join(message.src, root_feature, root_id, n, parent_episode)

    def _total_children(self) -> int:
        return sum(episode.children for episode in self._episodes.values())

    def _join(
        self,
        via: Hashable,
        root_feature: np.ndarray,
        root_id: Hashable,
        n: int,
        parent_episode: int,
        repair_of: Hashable | None = None,
    ) -> None:
        if self._obs is not None:
            # Three flavours of membership change share this entry point:
            # first join, bounded switch, and post-crash repair rejoin.
            if repair_of is not None:
                kind = "elink.rejoin"
            elif self.clustered:
                kind = "elink.switch"
            else:
                kind = "elink.join"
            self._obs.emit(
                self.now,
                kind,
                self.node_id,
                root=root_id,
                via=via,
                level=n,
                old_root=self.root_id if self.clustered else None,
            )
        self.clustered = True
        self.root_id = root_id
        self.root_feature = root_feature
        self.m = n
        self.parent = via
        self.clustered_at = self.now
        self._open_episode(parent=via, parent_episode=parent_episode, repair_of=repair_of)

    def handle_ack1(self, message: Message) -> None:
        """A neighbour joined under this node; bump its episode's child count."""
        episode = self._episodes[message.payload]
        if episode.timeout_passed and not self.config.failure_detection:
            raise RuntimeError(
                f"node {self.node_id!r}: ack1 arrived after leaf timeout of episode "
                f"{episode.seq}; increase ack_window"
            )
        episode.children += 1
        if self.config.failure_detection:
            episode.child_ids[message.src] += 1
            if episode.timeout_passed and not episode.completed:
                # The join landed after the leaf timeout, so the timeout's
                # escalation check already ran (or was never armed): arm a
                # fresh escalation so this late child cannot stall us.
                self.set_timer(
                    self.config.ack_window * self.network.max_hop_delay,
                    self._escalate_episode,
                    episode.seq,
                )

    def handle_ack2(self, message: Message) -> None:
        """A child subtree finished growing; maybe complete the episode."""
        episode = self._episodes[message.payload]
        if episode.children <= 0:
            if self.config.failure_detection:
                # Late ack2 from a child we already pruned or force-closed.
                return
            raise RuntimeError(f"node {self.node_id!r}: ack2 underflow on episode {episode.seq}")
        episode.children -= 1
        if self.config.failure_detection and episode.child_ids.get(message.src, 0) > 0:
            episode.child_ids[message.src] -= 1
        self._maybe_complete_episode(episode)

    # ------------------------------------------------------------------
    # failure-detection plumbing: liveness traffic needs no reaction —
    # the synchronous link layer's send/route receipt IS the answer.
    # ------------------------------------------------------------------
    def handle_probe(self, message: Message) -> None:
        """Liveness probe from a waiting episode parent; nothing to do."""

    def handle_hb(self, message: Message) -> None:
        """Heartbeat from a cluster child; nothing to do."""

    def handle_probe_sentinel(self, message: Message) -> None:
        """Liveness probe from a quadtree aggregator; nothing to do."""

    # ------------------------------------------------------------------
    # Fig 18: quadtree synchronization (explicit mode)
    # ------------------------------------------------------------------
    def _send_phase1(self, round_level: int) -> None:
        if self.config.signalling != "explicit":
            return
        if self._obs is not None:
            self._obs.emit(self.now, "elink.phase1", self.node_id, round=round_level)
        self._phase1_sent = True
        if self.level == 0:
            # Quadtree root: its own round is complete the moment its
            # expansion ends (it is the only member of S_0).
            self._round_complete(round_level)
        else:
            self.route(self.quad_parent, "phase1", payload=round_level)

    def handle_phase1(self, message: Message) -> None:
        """Fig 18: aggregate round-completion reports up the quadtree."""
        round_level = message.payload
        got = self._phase1_received.get(round_level, 0) + 1
        self._phase1_received[round_level] = got
        if self.config.failure_detection:
            # Tolerant, identity-based aggregation: takeovers and repair
            # re-elections can shift who reports, so exact counting is
            # replaced by a senders ⊇ eligible-children check (idempotent,
            # duplicate-proof).
            self._phase1_senders.setdefault(round_level, set()).add(message.src)
            self._check_round_progress(round_level)
            return
        expected = len(self._eligible_children(round_level))
        if got > expected:
            raise RuntimeError(
                f"node {self.node_id!r}: too many phase1({round_level}) messages"
            )
        if got == expected:
            if self.level == 0:
                self._round_complete(round_level)
            else:
                self.route(self.quad_parent, "phase1", payload=round_level)

    def _eligible_children(self, round_level: int) -> list[Hashable]:
        """Quad children whose subtree holds sentinels at *round_level*."""
        return [
            child
            for child in self.quad_children
            if self._child_subtree_max.get(child, -1) >= round_level
        ]

    def _check_round_progress(self, round_level: int) -> None:
        """Forward phase1 up (once) when every non-forgiven eligible quad
        child has reported for *round_level*."""
        if round_level in self._phase1_forwarded:
            return
        senders = self._phase1_senders.get(round_level, set())
        forgiven = self._phase1_forgiven.get(round_level, set())
        if all(
            child in senders
            for child in self._eligible_children(round_level)
            if child not in forgiven
        ):
            self._phase1_forwarded.add(round_level)
            if self.level == 0:
                self._round_complete(round_level)
            else:
                self.route(self.quad_parent, "phase1", payload=round_level)

    def _arm_phase_deadline(self, round_level: int) -> None:
        """Watch for the round's phase1 reports; fires bounded probes."""
        if round_level in self._deadline_attempts:
            return
        self._deadline_attempts[round_level] = 0
        self.set_timer(self._phase_patience, self._phase_deadline, round_level)

    def _phase_deadline(self, round_level: int) -> None:
        if round_level in self._phase1_forwarded:
            return
        senders = self._phase1_senders.get(round_level, set())
        forgiven = self._phase1_forgiven.setdefault(round_level, set())
        missing = [
            child
            for child in self._eligible_children(round_level)
            if child not in senders and child not in forgiven
        ]
        if not missing:
            self._check_round_progress(round_level)
            return
        attempts = self._deadline_attempts.get(round_level, 0) + 1
        self._deadline_attempts[round_level] = attempts
        for child in missing:
            if self.route(child, "probe_sentinel", payload=round_level) == -1:
                # Child sentinel dead/unreachable: try a cell takeover.
                if self._failover_sentinel(child, round_level) is None:
                    forgiven.add(child)
        if attempts >= self.config.ack_retries:
            # Budget spent: stop waiting for the stragglers.  Their
            # subtrees keep clustering locally; only round reporting is
            # abandoned (documented accounting approximation).
            for child in missing:
                forgiven.add(child)
        else:
            self.set_timer(self._phase_patience, self._phase_deadline, round_level)
        self._check_round_progress(round_level)

    def _failover_sentinel(self, dead: Hashable, round_level: int) -> Hashable | None:
        """Deterministic takeover: the next-eligible member of the dead
        sentinel's cell (closest to the cell centroid) adopts its role."""
        for candidate in self._cell_fallbacks.get(dead, ()):
            if candidate == self.node_id:
                continue
            if self.route(candidate, "takeover", payload=(dead, round_level)) != -1:
                self.quad_children = [
                    candidate if child == dead else child for child in self.quad_children
                ]
                self._note_repair("sentinel_failover", dead, by=candidate)
                return candidate
        return None

    def _static_subtree_contains(self, root: Hashable, target: Hashable) -> bool:
        """Whether *target* lies in *root*'s original quadtree subtree."""
        stack = [root]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            stack.extend(self._quad_children_of.get(node, ()))
        return False

    def handle_takeover(self, message: Message) -> None:
        """Adopt a dead sentinel's quadtree cell (role merge: the
        replacement keeps its own children and gains the dead node's)."""
        dead, round_level = message.payload
        if dead in self._taken_over:
            return
        self._taken_over.add(dead)
        if self._obs is not None:
            self._obs.emit(self.now, "elink.takeover", self.node_id, dead=dead, round=round_level)
        dead_level = self._quad_level_of.get(dead, self.level)
        dead_children = [
            child
            for child in self._quad_children_of.get(dead, [])
            # Never adopt ourselves, nor a child whose subtree contains us:
            # that would make us our own quadtree ancestor and cycle the
            # phase2/start wave.  Such a child's subtree keeps clustering
            # locally; only its round reporting is lost (bounded by the
            # prober's forgiveness budget).
            if child != self.node_id and not self._static_subtree_contains(child, self.node_id)
        ]
        self.level = min(self.level, dead_level)
        self.quad_parent = message.src
        self.quad_children = list(self.quad_children) + [
            child for child in dead_children if child not in self.quad_children
        ]
        self._child_subtree_max[self.node_id] = max(
            self._child_subtree_max.get(self.node_id, self.level),
            self._child_subtree_max.get(dead, dead_level),
        )
        self._phase1_sent = False
        self.start_elink()

    def _round_complete(self, round_level: int) -> None:
        """At the quadtree root: all of S_round_level finished expanding."""
        if self._obs is not None:
            self._obs.emit(
                self.now,
                "elink.round_done",
                self.node_id,
                round=round_level,
                final=round_level >= self.max_level,
            )
        if round_level >= self.max_level:
            if self.on_protocol_done is not None:
                self.on_protocol_done(self.now)
            return
        # phase2 travels down to the S_round_level sentinels, which then
        # start their S_{round_level+1} children.  The root is itself the
        # level-0 sentinel, so for round 0 it acts on phase2 directly.
        self._act_on_phase2(round_level)

    def _act_on_phase2(self, round_level: int) -> None:
        if self.config.failure_detection:
            # Takeover rewiring can (transiently) put a node on two quadtree
            # paths; acting once per round keeps the completion wave from
            # circulating forever; in fault-free trees this is a no-op.
            if round_level in self._phase2_acted:
                return
            self._phase2_acted.add(round_level)
        if self._obs is not None:
            self._obs.emit(self.now, "elink.phase2", self.node_id, round=round_level)
        if self.level == round_level:
            for child in self.quad_children:
                self.route(child, "start")
        else:
            for child in self._eligible_children(round_level):
                self.route(child, "phase2", payload=round_level)
        if self.config.failure_detection and self._eligible_children(round_level + 1):
            # We just kicked off (or relayed) round round_level+1 and will
            # be waiting on its phase1 reports: arm the watchdog.
            self._arm_phase_deadline(round_level + 1)

    def handle_phase2(self, message: Message) -> None:
        """Fig 18: forward the round-completion wave down the quadtree."""
        self._act_on_phase2(message.payload)

    def handle_start(self, message: Message) -> None:
        """Fig 18: quadtree parent says this sentinel's round begins."""
        self._phase1_sent = False  # new round for this sentinel
        self.start_elink()

    # Bound by the runner: mapping quad child -> subtree max level.
    _child_subtree_max: Mapping[Hashable, int] = {}
    # Bound by the runner when failure detection is on (class-level inert
    # defaults keep the zero-fault path untouched):
    _quad_level_of: Mapping[Hashable, int] = {}  # node -> sentinel level
    _quad_children_of: Mapping[Hashable, list] = {}  # node -> quad children
    _cell_fallbacks: Mapping[Hashable, tuple] = {}  # sentinel -> takeover order
    _fault_injector = None  # FaultInjector for repair-latency bookkeeping
    _phase_patience: float = 25.0  # round watchdog period (runner sets ~2.5κ)


def _id_less(a: Hashable, b: Hashable) -> bool:
    """Total order on node ids (falls back to repr for mixed types)."""
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return repr(a) < repr(b)


def compute_kappa(n: int, gamma: float) -> float:
    """κ = (1+γ)·√(N/2) — worst-case root-to-anywhere clustering time (§4)."""
    return (1.0 + gamma) * math.sqrt(n / 2.0) * HOP_DELAY


def implicit_schedule(n: int, depth: int, gamma: float) -> list[float]:
    """Start times ``T_l = Σ_{j<l} t_j`` for sentinel levels 0..depth (§4)."""
    kappa = compute_kappa(n, gamma)
    durations = [kappa * (2.0 - 2.0 ** (-level)) for level in range(depth + 1)]
    starts = [0.0]
    for level in range(1, depth + 1):
        starts.append(starts[-1] + durations[level - 1])
    return starts


class FinalState(NamedTuple):
    """How either engine's run ended, handed to the one assembly.

    Per node of *nodes* (graph order): the positions in *nodes* of its
    cluster root (``-1`` if it never joined a cluster) and of its
    cluster-tree parent (``-1`` at a root), as int64 arrays; its feature;
    when it last joined a cluster (float64, NaN if it never joined); and
    the switches it spent (int64).  A member holds its root's feature
    (elections, orphan re-roots and joins set the root id and root feature
    as one pair), so ``features[roots[i]]`` is the pruning feature of node
    i's cluster.  *protocol_done* holds when the quadtree root learned the
    final round finished (explicit signalling only).
    """

    nodes: Sequence[Hashable]
    roots: np.ndarray
    parents: np.ndarray
    features: Sequence[np.ndarray]
    clustered_at: np.ndarray
    switches: np.ndarray
    protocol_done: Sequence[float]


def run_elink(
    topology: Topology,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    config: ELinkConfig,
    *,
    quadtree: QuadTreeDecomposition | None = None,
    network: Network | None = None,
    injector: "FaultInjector | None" = None,
    tracer: "Tracer | None" = None,
) -> ELinkResult:
    """Run ELink over *topology* and return the resulting δ-clustering.

    Message costs are **measured** on the simulated network, not computed
    from the paper's closed forms.  The returned
    :attr:`ELinkResult.protocol_time` is the simulated completion time: for
    implicit signalling the time the last node joined a cluster plus the
    final level's allotted window; for explicit signalling the time the
    root learns the final round finished.

    With *injector* (a :class:`repro.sim.faults.FaultInjector`), its fault
    plan is armed on the kernel before the protocol starts; note the
    injector mutates the network's graph in place, so pass a network built
    over a copy if the topology is reused.  When nodes crashed during the
    run, the clustering is assembled over the *surviving* subgraph only
    (crashed roots keep contributing their feature as the pruning feature
    of their stranded members, so every emitted cluster is still a valid
    δ-cluster).  A node that never joined a cluster (a fault cut it off
    from every start signal and expansion) becomes a singleton.  An empty
    plan schedules nothing: byte-identical to no injector at all.

    Either engine's final state is assembled by
    :func:`repro.core.delta.clustering_from_arrays`: clusters whose
    protocol tree holds are kept as built, the others are repaired one
    root at a time.

    With *tracer* (a :class:`repro.obs.trace.Tracer`), the run is traced
    end to end — message traffic, timers, faults, ELink phase transitions
    — and can be exported with ``tracer.export_jsonl`` for ``python -m
    repro trace``.  The tracer is attached before any node registers, so
    passing it here is equivalent to building the network with it.  No
    tracer (the default) leaves the run byte-identical to pre-tracing
    builds.
    """
    if not features.keys() >= topology.graph.nodes:
        missing = sorted((v for v in topology.graph if v not in features), key=repr)
        raise ValueError(f"features missing for nodes: {missing[:5]}")
    if quadtree is None:
        quadtree = QuadTreeDecomposition(topology)
    if network is None:
        network = injector.network if injector is not None else Network(topology.graph)
    elif injector is not None and injector.network is not network:
        raise ValueError("injector must be bound to the network running the protocol")
    if tracer is not None:
        network.tracer = tracer
    # The verification hook (lazy import: repro.verify imports run_elink for
    # its replay harness).  With REPRO_VERIFY unset this is None and the run
    # is byte-identical to an unverified build.
    from repro.verify.runtime import runtime_verifier

    verifier = runtime_verifier()
    if verifier is not None:
        # Attach before any node registers: nodes cache the network tracer
        # at registration, so a verifier-installed tracer must exist first.
        verifier.attach(network)
    start_stats = network.stats.snapshot()
    if injector is not None:
        injector.arm()

    # Looked up on the module at call time, so a wrapper installed there
    # sees every call.  A None return consumed nothing.
    from repro.core import elink_vec

    end = elink_vec.try_run_vectorized(
        topology, features, metric, config, quadtree=quadtree, network=network, injector=injector
    )
    if end is None:
        end = _run_handlers(topology, features, metric, config, quadtree, network, injector)

    # The one assembly of both engines' final state.  Dead nodes drop out;
    # a dead root's feature stays the pruning feature of its stranded
    # members, and a node that never joined is a singleton.  The
    # clustering and its checks cover the population it was assembled on:
    # the surviving subgraph after a crash, the full topology otherwise.
    dead = network.dead_nodes
    graph = network.graph if dead else topology.graph
    nodes = end.nodes
    alive = (
        np.flatnonzero(np.fromiter((v not in dead for v in nodes), bool, count=len(nodes)))
        if dead
        else np.arange(len(nodes))
    )
    roots = np.where(end.roots >= 0, end.roots, np.arange(len(nodes)))
    clustering = clustering_from_arrays(
        graph, nodes, roots, end.parents, end.features, members=alive
    )
    repaired = clustering.num_clusters - int(np.count_nonzero(np.bincount(roots[alive])))

    clustered_at, switches = end.clustered_at, end.switches
    if dead:
        clustered_at, switches = clustered_at[alive], switches[alive]
    # The last join among the nodes assembled (NaN: never joined).
    completion_time = float(np.nanmax(clustered_at, initial=0.0))
    n, depth = topology.num_nodes, quadtree.depth
    if config.signalling == "implicit":
        kappa = compute_kappa(n, config.gamma)
        starts = implicit_schedule(n, depth, config.gamma)
        protocol_time = starts[-1] + kappa * (2.0 - 2.0 ** (-depth))
    elif config.signalling == "unordered":
        # §5: simultaneous expansion finishes within 2κ — the measured
        # completion time is the protocol time.
        protocol_time = completion_time
    else:
        protocol_time = end.protocol_done[0] if end.protocol_done else network.kernel.now

    if network._tracer is not None:
        network._tracer.emit(
            network.kernel.now,
            "elink.assembled",
            None,
            clusters=clustering.num_clusters,
            survivors=alive.size,
            dead=len(dead),
        )
    if verifier is not None:
        verifier.finish(
            network=network,
            graph=graph,
            clustering=clustering,
            features={nodes[i]: end.features[i] for i in alive.tolist()},
            metric=metric,
            delta=config.delta,
        )
    return ELinkResult(
        clustering=clustering,
        stats=network.stats.diff(start_stats),
        completion_time=completion_time,
        protocol_time=protocol_time,
        total_switches=int(switches.sum()),
        repaired_components=max(repaired, 0),
        config=config,
    )


def _run_handlers(
    topology: Topology,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    config: ELinkConfig,
    quadtree: QuadTreeDecomposition,
    network: Network,
    injector: "FaultInjector | None",
) -> FinalState:
    """Run the per-message handler engine to quiescence; its final state."""
    # Subtree max levels for the phase1 expectation counts (a fresh dict:
    # sentinel takeovers write into it).
    subtree_max = quadtree.subtree_max_levels()

    depth = quadtree.depth
    nodes: dict[Hashable, ELinkNode] = {}
    for node_id in topology.graph.nodes:
        elink_node = ELinkNode(
            node_id,
            network,
            np.asarray(features[node_id], dtype=np.float64),
            metric=metric,
            config=config,
            level=quadtree.level_of[node_id],
            quad_parent=quadtree.quad_parent[node_id],
            quad_children=quadtree.quad_children.get(node_id, []),
            max_level=depth,
        )
        elink_node._child_subtree_max = subtree_max
        nodes[node_id] = elink_node

    protocol_done_at: list[float] = []
    root_sentinel = quadtree.root
    nodes[root_sentinel].on_protocol_done = protocol_done_at.append

    n = topology.num_nodes
    if config.failure_detection or injector is not None:
        # Bind the repair registries: cell-takeover orders (cell members by
        # distance to the cell centroid, deterministic tie-break on repr),
        # the quadtree role maps a replacement needs to adopt a dead
        # sentinel's cell, and a round-watchdog patience of ~2.5κ (one
        # worst-case round is 2κ).
        cell_fallbacks = quadtree.takeover_orders()
        patience = max(
            3.0 * config.ack_window * network.max_hop_delay,
            2.5 * compute_kappa(n, config.gamma),
        )
        for elink_node in nodes.values():
            elink_node._cell_fallbacks = cell_fallbacks
            elink_node._quad_level_of = quadtree.level_of
            elink_node._quad_children_of = quadtree.quad_children
            elink_node._fault_injector = injector
            elink_node._phase_patience = patience

    # Start timers are owned by their sentinel, so a crash cancels the
    # node's pending start (schedule_owned wraps the same kernel.schedule
    # call: identical event sequence numbers, byte-identical zero-fault).
    if config.signalling == "implicit":
        starts = implicit_schedule(n, depth, config.gamma)
        for level, sentinels in enumerate(quadtree.sentinel_sets):
            for sentinel in sentinels:
                network.schedule_owned(
                    sentinel,
                    max(starts[level] - network.kernel.now, 0.0),
                    nodes[sentinel].start_elink,
                )
    elif config.signalling == "unordered":
        for sentinels in quadtree.sentinel_sets:
            for sentinel in sentinels:
                network.schedule_owned(sentinel, 0.0, nodes[sentinel].start_elink)
    else:
        network.schedule_owned(root_sentinel, 0.0, nodes[root_sentinel].start_elink)

    event_budget = 200 * n * (depth + 2) + 10_000
    if config.failure_detection or injector is not None:
        event_budget *= 4  # heartbeats/probes/watchdogs add bounded traffic
    network.run(max_events=event_budget)

    final = list(nodes.values())
    index = {node_id: i for i, node_id in enumerate(nodes)}
    index[None] = -1
    return FinalState(
        nodes=list(nodes),
        roots=np.fromiter((index[node.root_id] for node in final), np.int64, count=n),
        parents=np.fromiter((index[node.parent] for node in final), np.int64, count=n),
        features=[node.feature for node in final],
        clustered_at=np.fromiter(
            (math.nan if node.clustered_at is None else node.clustered_at for node in final),
            np.float64,
            count=n,
        ),
        switches=np.fromiter((node.switches_used for node in final), np.int64, count=n),
        protocol_done=protocol_done_at,
    )
