"""Sensor-network message-passing substrate.

The :class:`Network` wraps a communication graph (``networkx.Graph``) and an
:class:`~repro.sim.kernel.EventKernel`.  It delivers messages between
registered node objects with a fixed per-hop delay, :data:`HOP_DELAY` (the
paper's §4 cost model: "the worst-case delay over a hop is a single time
unit"), and charges every transmission to a
:class:`~repro.sim.stats.MessageStats` accumulator.

Delivery modes:

- :meth:`send` — single-hop unicast to a direct neighbour (cluster
  expansion and cluster-tree traffic always moves along graph edges).
- :meth:`route` — multi-hop unicast along a shortest path (quadtree
  signalling, query routing to cluster roots, update handling).  Charged
  ``values × hops``.
- :meth:`broadcast` — one :meth:`send` to every neighbour.

Nodes are any object with a ``handle_message(message)`` method, registered
via :meth:`register`.

Fault semantics (DESIGN.md §9): once the topology has been mutated through
the mutators, deliveries involving dead nodes or severed links become
**structured failures** — :meth:`send` returns ``False``, :meth:`route`
returns ``-1`` — recorded in
:attr:`MessageStats.drops_by_reason <repro.sim.stats.MessageStats>` instead
of raising mid-simulation.  Failures are synchronous at the sender (the
link layer knows its ack never came), which is what protocol-level failure
detection keys off.  Genuine programming errors (sending over an edge that
never existed, routing in a graph that was disconnected from the start)
still raise, so the fault path cannot mask bugs in fault-free runs; routing
to or from an id that is neither a live nor a crashed node raises
:class:`networkx.NodeNotFound` in every mode.

Performance notes (see DESIGN.md §8):

- **One adjacency.**  The network keeps no copy of the graph's neighbour
  lists: it reads ``graph._adj``, networkx's insertion-ordered neighbour
  dicts — the order deliveries and BFS tie-breaking depend on — so
  construction makes no pass over nodes or edges.  The mutators
  :meth:`remove_node` / :meth:`restore_node` / :meth:`remove_edge` /
  :meth:`restore_edge` change that same structure through networkx
  (removals keep the survivors' order, re-adds append), so a send sees
  every change at once, a hand-added edge included.  The batch engine,
  the assembly and the backbone read the same rows as arrays through
  :func:`~repro.geometry.topology.adjacency_arrays`.
- When ``jitter == 0 and loss is None`` (the paper's synchronous reliable
  model, and the default) deliveries take a zero-overhead fast path:
  constant hop delay, no RNG call, no per-attempt loop.
- **Cohort-batched delivery.**  On that fast path every hop arrives at
  ``now + HOP_DELAY``, so consecutive sends target the same timestamp.
  ``_post_delivery`` groups them into one *cohort*: a single kernel event
  that drains the whole same-timestamp message list in one callback.  A
  cohort accepts appends only while the kernel has seen **no push of any
  kind** since the cohort's own event was queued (tracked via
  :attr:`EventKernel.pushes <repro.sim.kernel.EventKernel>`).  Any
  intervening push — a timer, a delivery at another timestamp — seals the
  cohort, and the next same-timestamp send starts a fresh one.  Sealing
  on *every* push is conservative (only same-timestamp pushes could
  actually interleave) but makes the ordering argument airtight: cohort
  members are contiguous in ``(time, seq)`` order with no kernel entry
  between them, exactly as per-message posts would run.  The only
  observable difference is ``kernel.events_executed`` — a cohort is one
  kernel event for k messages.  Every member is still delivered through
  ``_deliver``, traced or not.
- Jitter samples are pre-drawn in chunks when enabled; numpy consumes the
  same bit stream either way, so jittery runs are byte-identical to the
  per-call sampling they replace.
- **Hop counts from distance trees.**  :meth:`route` charges and delays
  by hop count alone, so it asks :meth:`hop_distance`, which keeps one
  breadth-first tree per source: a ``{node: depth}`` dict plus the open
  frontier.  A tree grows a whole level at a time, only until the queried
  destination appears, and later queries resume it where it stopped; a
  query is also answered from the destination's tree when that already
  holds the source (the graph is undirected).  Every mutator and
  :meth:`invalidate_paths` clears all trees.  Their total size is bounded
  without a parameter: once the trees hold more than
  ``TREE_BUDGET_PER_NODE`` distances per node the network was built with,
  they are all dropped and regrow on demand, which changes no answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Protocol

if TYPE_CHECKING:  # import-light: the tracer is only ever held, never built here
    from repro.obs.trace import Tracer

import networkx as nx
import numpy as np

from repro._validation import require_non_negative
from repro.sim.kernel import Event, EventKernel
from repro.sim.messages import Message
from repro.sim.radio import LossyLinkModel
from repro.sim.stats import MessageStats

#: Simulated time for one hop: the paper's §4 unit ("the worst-case delay
#: over a hop is a single time unit").  A float, so kernel time stays one.
HOP_DELAY = 1.0

#: Batch size for pre-drawn jitter samples.
_JITTER_CHUNK = 256

#: Bound on the distance trees behind :meth:`Network.hop_distance`: all
#: trees are cleared once they hold more than this many distances per
#: node the network was built with.  Measured peaks are ~30 per node on
#: chaos_1000 and at most 8 on explicit grids up to 4·10⁴ nodes, so the
#: bound only stops all-to-one patterns, which would store ~N²/2
#: distances, from growing unbounded.
TREE_BUDGET_PER_NODE = 64


class MessageHandler(Protocol):
    """Anything that can receive messages from the network."""

    def handle_message(self, message: Message) -> None:
        """Deliver *message* to this endpoint."""
        ...


class Network:
    """Message-passing layer over a communication graph.

    Parameters
    ----------
    graph:
        The communication graph *CG*.  Nodes are arbitrary hashables.  The
        network reads its neighbour dicts in place, and :attr:`kernel`, a
        fresh :class:`~repro.sim.kernel.EventKernel`, drives delivery.
    jitter:
        Asynchrony: each hop takes ``HOP_DELAY * (1 + U(0, jitter))``
        (default 0 — the paper's synchronous unit-delay model).
    jitter_seed:
        Seed of the jitter samples.
    loss:
        Optional :class:`~repro.sim.radio.LossyLinkModel`; failed hop
        transmissions are retransmitted (ARQ), inflating cost and delay.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  When attached, the
        delivery layer emits ``msg.send`` / ``msg.route`` /
        ``msg.deliver`` / ``msg.drop``, the mutators emit ``node.crash``
        / ``node.recover`` / ``link.down`` / ``link.up``, and the same
        tracer is installed on the kernel for timer events.  Attach it at
        construction (or before nodes register): protocol runtimes cache
        the reference, so attaching later leaves them untraced.  ``None``
        (the default) costs one predicate per hook site — runs are
        byte-identical with or without the hooks compiled in.
    """

    def __init__(
        self,
        graph: nx.Graph,
        *,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        loss: "LossyLinkModel | None" = None,
        tracer: "Tracer | None" = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("communication graph must have at least one node")
        self.graph = graph
        #: Neighbour dicts, in BFS order: the graph's own, shared.
        self._adj: dict[Hashable, dict[Hashable, dict]] = graph._adj
        self.kernel = EventKernel()
        #: Asynchrony: each hop takes HOP_DELAY * (1 + U(0, jitter)).  The
        #: paper's implicit timers absorb jitter only up to the stretch
        #: factor γ; explicit signalling is correct for any jitter.
        self.jitter = require_non_negative(jitter, "jitter")
        self._jitter_rng = np.random.default_rng(jitter_seed)
        self._jitter_buffer: np.ndarray | None = None
        self._jitter_cursor = 0
        self.stats = MessageStats()
        self.loss = loss
        #: True when the zero-overhead delivery path applies (synchronous
        #: unit-delay, reliable links — the paper's cost model).
        self._fast = jitter == 0.0 and loss is None
        self._handlers: dict[Hashable, MessageHandler] = {}
        #: node -> bound ``handle_message``, so delivery skips one attribute
        #: lookup per message.
        self._dispatch: dict[Hashable, Callable[[Message], None]] = {}
        #: Nodes removed by :meth:`remove_node` (fail-stop crashes).
        self.dead_nodes: set[Hashable] = set()
        #: Currently-severed links (frozenset endpoints) from :meth:`remove_edge`.
        self._removed_edges: set[frozenset] = set()
        #: True once any mutator has run; gates every fault check so the
        #: zero-fault delivery paths stay byte-identical and branch-cheap.
        self._mutated = False
        #: Cancellable timers registered per owning node (crash cleanup).
        self._owned_timers: dict[Hashable, list[Event]] = {}
        #: Optional tracer (DESIGN.md §10); every hook guards on it, so
        #: ``None`` keeps the delivery paths byte-identical to untraced
        #: builds.  Shared with the kernel so timers land in one stream.
        self._tracer = tracer
        if tracer is not None:
            self.kernel.tracer = tracer
        #: Per-source BFS distance trees (:meth:`hop_distance`):
        #: ``src -> (depths, frontier, frontier depth)``, the number of
        #: depths they hold between them, and the bound on that number.
        self._trees: dict[Hashable, tuple[dict[Hashable, int], list[Hashable], int]] = {}
        self._tree_size = 0
        self._tree_budget = TREE_BUDGET_PER_NODE * graph.number_of_nodes()
        #: Open delivery cohorts: time -> (message list, kernel.pushes at
        #: the moment the cohort's kernel event was queued).
        self._cohorts: dict[float, tuple[list, int]] = {}

    @property
    def tracer(self) -> "Tracer | None":
        """The attached tracer, or None when tracing is disabled."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: "Tracer | None") -> None:
        """Attach *tracer* to the network and its kernel.

        Constructor-time attachment is preferred: protocol runtimes
        cache the reference when they register (see class docstring).
        """
        self._tracer = tracer
        self.kernel.tracer = tracer

    @property
    def max_hop_delay(self) -> float:
        """Worst-case single-transmission delay under the jitter model."""
        return HOP_DELAY * (1.0 + self.jitter)

    def _sample_hop_delay(self) -> float:
        if self.jitter == 0.0:
            return HOP_DELAY
        buffer = self._jitter_buffer
        if buffer is None or self._jitter_cursor >= buffer.shape[0]:
            buffer = self._jitter_rng.uniform(0.0, self.jitter, size=_JITTER_CHUNK)
            self._jitter_buffer = buffer
            self._jitter_cursor = 0
        value = buffer[self._jitter_cursor]
        self._jitter_cursor += 1
        return HOP_DELAY * (1.0 + float(value))

    def _hop_cost(self, message: Message) -> int:
        """Charge one hop (with retransmissions under loss); returns the
        number of transmission attempts used for delay accounting."""
        attempts = self.loss.attempts_for_hop() if self.loss is not None else 1
        self.stats.record(message, hops=attempts)
        return attempts

    # ------------------------------------------------------------------
    # node registry
    # ------------------------------------------------------------------
    def register(self, node_id: Hashable, handler: MessageHandler) -> None:
        """Attach *handler* as the protocol endpoint for *node_id*."""
        if node_id not in self._adj:
            raise KeyError(f"node {node_id!r} is not in the communication graph")
        self._handlers[node_id] = handler
        self._dispatch[node_id] = handler.handle_message

    def handler(self, node_id: Hashable) -> MessageHandler:
        """The registered handler for *node_id*."""
        try:
            return self._handlers[node_id]
        except KeyError:
            raise KeyError(f"no handler registered for node {node_id!r}") from None

    def neighbors(self, node_id: Hashable) -> tuple[Hashable, ...]:
        """Neighbours of *node_id*, in BFS order."""
        return tuple(self._adj[node_id])

    def degree(self, node_id: Hashable) -> int:
        """Degree of *node_id* in the communication graph."""
        return len(self._adj[node_id])

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Unicast *message* one hop to a direct neighbour of its source.

        Returns ``True`` on (scheduled) delivery.  After a topology fault,
        sends to a crashed neighbour or over a severed link return ``False``
        and record a structured drop — the synchronous link layer tells the
        sender its transmission was not acknowledged.
        """
        src = message.src
        neighbours = self._adj.get(src)
        if neighbours is None or message.dst not in neighbours:
            if self._mutated:
                reason = self._endpoint_failure(src, message.dst)
                if reason is None and frozenset((src, message.dst)) in self._removed_edges:
                    reason = "link_down"
                if reason is not None:
                    self._drop(message, reason)
                    return False
            raise ValueError(
                f"send() requires adjacency: {message.src!r} -> {message.dst!r} "
                "is not an edge; use route() for multi-hop delivery"
            )
        if self._fast:
            self.stats.record(message)
            if self._tracer is not None:
                self._trace_send(message)
            self._post_delivery(HOP_DELAY, message)
            return True
        attempts = self._hop_cost(message)
        delay = sum(self._sample_hop_delay() for _ in range(attempts))
        if self._tracer is not None:
            self._trace_send(message, attempts=attempts)
        self._post_delivery(delay, message)
        return True

    def _post_delivery(self, delay: float, message: Message) -> None:
        """Schedule *message* to arrive ``delay`` from now.

        On the fast path it joins the open delivery cohort at its arrival
        time when no kernel push has happened since that cohort was queued
        (module docstring); otherwise it starts a new cohort.
        """
        kernel = self.kernel
        if not self._fast:
            kernel.post(delay, self._deliver, message)
            return
        time = kernel.now + delay
        entry = self._cohorts.get(time)
        if entry is not None and entry[1] == kernel.pushes:
            entry[0].append(message)
            return
        batch = [message]
        kernel.post(delay, self._deliver_cohort, time, batch)
        self._cohorts[time] = (batch, kernel.pushes)

    def _trace_send(self, message: Message, attempts: int = 1) -> None:
        """Emit ``msg.send`` (single-hop unicast scheduled)."""
        self._tracer.emit(
            self.kernel.now,
            "msg.send",
            message.src,
            dst=message.dst,
            kind=message.kind,
            values=message.values,
            attempts=attempts,
        )

    def broadcast(
        self,
        src: Hashable,
        kind: str,
        payload=None,
        values: int = 1,
        category: str = "",
    ) -> int:
        """Send ``Message(kind, src, nbr, payload, values, category)`` to
        every neighbour *nbr* of *src*, one :meth:`send` each.

        Returns the number of copies sent (a crashed source sends none;
        copies to crashed neighbours or over severed links are drops).
        """
        if self._mutated and src in self.dead_nodes:
            return 0
        send = self.send
        count = 0
        for neighbor in self._adj[src]:
            if send(Message(kind, src, neighbor, payload, values, category)):
                count += 1
        return count

    def route(self, message: Message) -> int:
        """Deliver *message* along a shortest path; returns the hop count.

        Cost: ``values × hops``; delay: ``hops × HOP_DELAY``.  A message to
        self is free and delivered after one delay unit (processing time).

        After a topology fault, an unreachable/dead destination yields a
        structured drop and returns ``-1`` instead of raising; a graph that
        was disconnected from the start (never mutated) still raises
        :class:`networkx.NetworkXNoPath` — that is a configuration bug.  An
        id that is neither a live nor a crashed node raises
        :class:`networkx.NodeNotFound` in either case.
        """
        src, dst = message.src, message.dst
        if self._mutated:
            reason = self._endpoint_failure(src, dst)
            if reason is None:
                try:
                    hops = self.hop_distance(src, dst)
                except nx.NetworkXNoPath:
                    reason = "no_route"
            else:
                self._require_known(src, dst)
            if reason is not None:
                self._drop(message, reason)
                return -1
        else:
            hops = self.hop_distance(src, dst)
        return self._traverse(message, hops)

    def _traverse(self, message: Message, hops: int) -> int:
        """Charge and deliver *message* over *hops* hops; returns *hops*."""
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now,
                "msg.route",
                message.src,
                dst=message.dst,
                kind=message.kind,
                values=message.values,
                hops=hops,
            )
        if hops == 0:
            self._post_delivery(HOP_DELAY, message)
            return 0
        if self._fast:
            # One stats record covers all hops (counters are additive).
            self.stats.record(message, hops=hops)
            self._post_delivery(hops * HOP_DELAY, message)
            return hops
        delay = 0.0
        for _ in range(hops):
            attempts = self._hop_cost(message)
            delay += sum(self._sample_hop_delay() for _ in range(attempts))
        self._post_delivery(delay, message)
        return hops

    def _deliver(self, message: Message) -> None:
        dst = message.dst
        # dead_nodes is checked per message: the recipient may have crashed
        # after the send was scheduled, even earlier in the same cohort.
        if self.dead_nodes and dst in self.dead_nodes:
            # The transmission cost was already charged; the message
            # silently disappears at the dead radio.
            self._drop(message, "dead_destination")
            return
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now, "msg.deliver", dst, src=message.src, kind=message.kind
            )
        try:
            handle = self._dispatch[dst]
        except KeyError:
            handle = self.handler(dst).handle_message  # canonical error
        handle(message)

    def _deliver_cohort(self, time: float, batch: list[Message]) -> None:
        entry = self._cohorts.get(time)
        if entry is not None and entry[0] is batch:
            del self._cohorts[time]
        deliver = self._deliver
        for message in batch:
            deliver(message)

    # ------------------------------------------------------------------
    # faults: structured failures, topology mutators, owned timers
    # ------------------------------------------------------------------
    def _endpoint_failure(self, src: Hashable, dst: Hashable) -> str | None:
        """Reason string if either endpoint is dead, else None."""
        if src in self.dead_nodes:
            return "dead_source"
        if dst in self.dead_nodes:
            return "dead_destination"
        return None

    def _drop(self, message: Message, reason: str) -> None:
        """Record a structured delivery failure."""
        self.stats.record_drop(message, reason)
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now,
                "msg.drop",
                message.src,
                dst=message.dst,
                kind=message.kind,
                reason=reason,
            )

    def is_alive(self, node_id: Hashable) -> bool:
        """False once *node_id* has been crashed via :meth:`remove_node`."""
        return node_id not in self.dead_nodes

    def remove_node(self, node_id: Hashable) -> tuple[Hashable, ...]:
        """Fail-stop crash: remove *node_id* and its incident edges.

        Cancels every pending timer registered for the node via
        :meth:`schedule_owned`, marks it dead (so in-flight deliveries to it
        drop), mutates ``self.graph`` and clears the distance trees.
        Returns the node's neighbours at crash time, its adjacency row in
        insertion order (itself included if it has a self-loop), for a
        later :meth:`restore_node`.  Idempotent: crashing a dead node
        returns ``()``.
        """
        if node_id in self.dead_nodes:
            return ()
        if node_id not in self._adj:
            raise KeyError(f"node {node_id!r} is not in the communication graph")
        neighbours = tuple(self._adj[node_id])
        self.cancel_owned(node_id)
        self.graph.remove_node(node_id)
        self.dead_nodes.add(node_id)
        self._mutated = True
        self._clear_trees()
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now, "node.crash", node_id, degree=len(neighbours)
            )
        return neighbours

    def restore_node(self, node_id: Hashable, neighbours: Iterable[Hashable] = ()) -> None:
        """Recover a crashed node, re-attaching it to the still-alive subset
        of *neighbours* (typically the tuple :meth:`remove_node` returned;
        links independently severed by :meth:`remove_edge` stay down).  The
        node is alive again before its links are restored, so a self-loop
        in *neighbours* comes back too."""
        self.graph.add_node(node_id)
        self.dead_nodes.discard(node_id)
        for nbr in neighbours:
            if (
                nbr in self.graph
                and nbr not in self.dead_nodes
                and frozenset((node_id, nbr)) not in self._removed_edges
            ):
                self.graph.add_edge(node_id, nbr)
        self._mutated = True
        self._clear_trees()
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now, "node.recover", node_id, degree=self.graph.degree(node_id)
            )

    def remove_edge(self, u: Hashable, v: Hashable) -> bool:
        """Sever the link *u*—*v* (churn).  Returns False if already down."""
        if not self.graph.has_edge(u, v):
            return False
        self.graph.remove_edge(u, v)
        self._removed_edges.add(frozenset((u, v)))
        self._mutated = True
        self._clear_trees()
        if self._tracer is not None:
            self._tracer.emit(self.kernel.now, "link.down", u, other=v)
        return True

    def restore_edge(self, u: Hashable, v: Hashable) -> bool:
        """Bring a severed link back up.  Returns False if the link was not
        severed by :meth:`remove_edge` or an endpoint is (still) dead."""
        key = frozenset((u, v))
        if key not in self._removed_edges:
            return False
        if u in self.dead_nodes or v in self.dead_nodes:
            return False
        self._removed_edges.discard(key)
        self.graph.add_edge(u, v)
        self._mutated = True
        self._clear_trees()
        if self._tracer is not None:
            self._tracer.emit(self.kernel.now, "link.up", u, other=v)
        return True

    def schedule_owned(
        self, owner: Hashable, delay: float, callback, *args
    ) -> Event:
        """Schedule a cancellable timer registered to *owner*.

        Crashing *owner* via :meth:`remove_node` blanket-cancels all its
        pending timers; fired timers are pruned lazily.  The event is
        stamped with its owner, so traced ``timer.fire``/``timer.skip``
        events are attributed to the owning node.
        """
        event = self.kernel.schedule(delay, callback, *args)
        event.owner = owner
        bucket = self._owned_timers.setdefault(owner, [])
        bucket.append(event)
        if len(bucket) > 64:
            self._owned_timers[owner] = [
                ev for ev in bucket if not ev.fired and not ev.cancelled
            ]
        return event

    def cancel_owned(self, owner: Hashable) -> int:
        """Cancel every pending timer registered to *owner*; returns the
        number of timers that were still pending."""
        cancelled = 0
        for event in self._owned_timers.pop(owner, ()):
            if not event.fired and not event.cancelled:
                event.cancel()
                cancelled += 1
        if cancelled and self._tracer is not None:
            self._tracer.emit(self.kernel.now, "timer.cancel", owner, count=cancelled)
        return cancelled

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def hop_distance(self, src: Hashable, dst: Hashable) -> int:
        """Shortest-path hop count from *src* to *dst*.

        Answered from the per-source distance trees (module docstring):
        *src*'s tree, else *dst*'s tree if it already holds *src*, else
        *src*'s tree grown level by level until *dst* appears.  Raises
        :class:`networkx.NodeNotFound` for an id the network never had and
        :class:`networkx.NetworkXNoPath` when no live path exists.
        """
        trees = self._trees
        tree = trees.get(src)
        if tree is not None:
            depth = tree[0].get(dst)
            if depth is not None:
                return depth
        other = trees.get(dst)
        if other is not None:
            depth = other[0].get(src)
            if depth is not None:
                return depth
        self._require_endpoints(src, dst)
        if tree is None:
            tree = ({src: 0}, [src], 0)
            self._tree_size += 1
        depths, frontier, depth = tree
        size = len(depths)
        adj = self._adj
        # Whole levels at a time, so a stored frontier is always complete.
        while dst not in depths and frontier:
            depth += 1
            next_frontier: list[Hashable] = []
            for v in frontier:
                for w in adj[v]:
                    if w not in depths:
                        depths[w] = depth
                        next_frontier.append(w)
            frontier = next_frontier
        trees[src] = (depths, frontier, depth)
        self._tree_size += len(depths) - size
        found = depths.get(dst)
        if self._tree_size > self._tree_budget:
            self._clear_trees()
        if found is None:
            raise nx.NetworkXNoPath(f"no path from {src!r} to {dst!r}")
        return found

    def _clear_trees(self) -> None:
        """Drop every distance tree (topology changed, or over budget)."""
        self._trees.clear()
        self._tree_size = 0

    def _require_endpoints(self, src: Hashable, dst: Hashable) -> None:
        """Raise unless both ids are live nodes: :class:`networkx.NodeNotFound`
        for an id that is neither live nor crashed (a programming error, in
        any mode), :class:`networkx.NetworkXNoPath` for a crashed one."""
        adj = self._adj
        if src in adj and dst in adj:
            return
        self._require_known(src, dst)
        raise nx.NetworkXNoPath(f"no path from {src!r} to {dst!r}: an endpoint has crashed")

    def _require_known(self, *nodes: Hashable) -> None:
        """Raise :class:`networkx.NodeNotFound` for an id that is neither in
        the adjacency nor among the crashed nodes."""
        for node in nodes:
            if node not in self._adj and node not in self.dead_nodes:
                raise nx.NodeNotFound(f"node {node!r} is not in the communication graph")

    def invalidate_paths(self) -> None:
        """Drop the BFS distance trees after a hand-mutation of ``self.graph``.

        Sends read the graph's own neighbour dicts and see such a change at
        once, but :meth:`hop_distance` answers from trees grown over the
        old topology, so routes are charged stale hop counts until this is
        called.  Prefer the mutators (:meth:`remove_node` /
        :meth:`restore_node` / :meth:`remove_edge` / :meth:`restore_edge`),
        which clear the trees themselves and also keep the
        structured-failure bookkeeping.
        """
        self._clear_trees()

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event kernel (convenience passthrough)."""
        return self.kernel.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()}, t={self.kernel.now:.2f})"
        )
