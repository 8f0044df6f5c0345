"""Discrete-event simulation kernel (events, processes, resources)."""

from repro.sim.core import Condition, Event, Process, Simulator, Timeout
from repro.sim.resources import BandwidthChannel, Store

__all__ = [
    "Condition",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "BandwidthChannel",
    "Store",
]
