"""Discrete-event sensor-network simulation substrate."""

from repro.sim.energy import EnergyModel
from repro.sim.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.kernel import Event, EventKernel
from repro.sim.radio import LossyLinkModel
from repro.sim.messages import (
    CATEGORY_CLUSTERING,
    CATEGORY_DATA,
    CATEGORY_QUERY,
    CATEGORY_REPAIR,
    CATEGORY_SYNC,
    CATEGORY_UPDATE,
    Message,
)
from repro.sim.network import Network
from repro.sim.node import ProtocolNode
from repro.sim.stats import MessageStats

__all__ = [
    "CATEGORY_CLUSTERING",
    "CATEGORY_DATA",
    "CATEGORY_QUERY",
    "CATEGORY_REPAIR",
    "CATEGORY_SYNC",
    "CATEGORY_UPDATE",
    "EnergyModel",
    "Event",
    "EventKernel",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LossyLinkModel",
    "Message",
    "MessageStats",
    "Network",
    "ProtocolNode",
]
