"""Base class for protocol node runtimes.

A :class:`ProtocolNode` owns a node id, a reference to the network, and a
feature value; it dispatches incoming messages to ``handle_<kind>`` methods
and provides timer helpers.  ELink nodes, spanning-forest nodes and query
processors all build on it.

Observability: registration caches the network's tracer as ``self._obs``
(None when tracing is disabled), so protocol hooks — here and in
subclasses like :class:`~repro.core.elink.ELinkNode` — cost a single
``is not None`` predicate.  :meth:`ProtocolNode.set_timer` emits
``timer.set`` with the owning node's id, which is where timers gain the
per-node attribution the kernel (which sees only callbacks) cannot give
them.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from repro.sim.kernel import Event
from repro.sim.messages import Message
from repro.sim.network import Network


class ProtocolNode:
    """A sensor node participating in a message-driven protocol.

    Subclasses implement ``handle_<kind>(message)`` methods for each message
    kind they understand; unknown kinds raise so protocol bugs surface
    immediately instead of being silently dropped.
    """

    def __init__(self, node_id: Hashable, network: Network, feature: np.ndarray):
        self.node_id = node_id
        self.network = network
        self.feature = feature
        self._handlers: dict[str, Any] = {}
        #: Cached tracer reference (attach the tracer to the network
        #: *before* building nodes — see Network's class docstring).
        self._obs = network._tracer
        network.register(node_id, self)

    # ------------------------------------------------------------------
    # messaging helpers
    # ------------------------------------------------------------------
    def send(self, dst: Hashable, kind: str, payload: Any = None, *, values: int = 1) -> bool:
        """Single-hop unicast to a direct neighbour.

        Returns the network receipt: ``False`` when the link layer reports a
        structured delivery failure (dead neighbour, severed link).
        """
        return self.network.send(Message(kind, self.node_id, dst, payload, values))

    def route(self, dst: Hashable, kind: str, payload: Any = None, *, values: int = 1) -> int:
        """Multi-hop unicast along a shortest path.

        Returns the hop count, or ``-1`` on a structured delivery failure
        (dead/unreachable destination after a fault).
        """
        return self.network.route(Message(kind, self.node_id, dst, payload, values))

    def broadcast(self, kind: str, payload: Any = None, *, values: int = 1) -> int:
        """Send a copy to every neighbour; returns the number of copies
        (see :meth:`Network.broadcast`)."""
        return self.network.broadcast(self.node_id, kind, payload, values)

    def set_timer(self, delay: float, callback, *args) -> Event:
        """Schedule *callback* on the shared kernel; returns a cancellable
        event.  The timer is registered under this node's id, so crashing
        the node (``Network.remove_node``) cancels it."""
        if self._obs is not None:
            self._obs.emit(
                self.now,
                "timer.set",
                self.node_id,
                callback=getattr(callback, "__qualname__", None) or repr(callback),
                delay=delay,
            )
        return self.network.schedule_owned(self.node_id, delay, callback, *args)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.kernel.now

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Deliver *message* to this endpoint."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            handler = getattr(self, f"handle_{message.kind}", None)
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} (node {self.node_id!r}) has no handler "
                    f"for message kind {message.kind!r}"
                )
            self._handlers[message.kind] = handler
        handler(message)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id!r})"
