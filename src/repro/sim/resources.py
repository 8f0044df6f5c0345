"""Contended resources for the simulation kernel.

Two primitives cover everything the RDMA/NAM models need:

* :class:`Store` — a FIFO message queue with blocking ``get`` (shared
  receive queues, RPC mailboxes). A memory server's CPU worker pool is
  processes that ``get`` from one.
* :class:`BandwidthChannel` — a serial transmission line with a fixed
  byte rate and per-message overhead (one direction of one NIC port).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator

__all__ = ["Store", "BandwidthChannel"]


class Store:
    """FIFO queue between processes, unbounded by default.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item (immediately if one is queued). Items are delivered in insertion
    order and each item goes to exactly one getter.

    An optional *capacity* bounds the number of queued (not yet claimed)
    items — the primitive behind queue-based load leveling on the RPC
    path. ``put`` on a full store raises; callers that want to reject
    rather than crash use :meth:`try_put`.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Enqueue *item*, waking the oldest waiting getter if any."""
        if not self.try_put(item):
            raise SimulationError(
                f"put() on a full store (capacity {self.capacity})"
            )

    def try_put(self, item: Any) -> bool:
        """Enqueue *item* if there is room; returns False on a full store.

        Handing the item directly to a waiting getter never counts against
        capacity — the queue itself stays empty.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is not None and len(self._items) >= self.capacity:
            return False
        else:
            self._items.append(item)
        return True

    def get(self) -> Event:
        """Event firing with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class BandwidthChannel:
    """One direction of a transmission link with finite byte rate.

    Transfers are serialized FIFO: a transfer of ``n`` bytes occupies the
    channel for ``overhead + n / rate`` seconds. The implementation uses a
    *reservation clock* instead of a queue — :meth:`reserve` books the
    next free slot on the line and returns its completion time, which the
    sender sleeps until — semantically identical for a serial line but a
    single sleep.
    The channel counts bytes and messages so experiments can report network
    utilization (paper Figure 9).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_per_s: float,
        per_message_overhead_s: float = 0.0,
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise SimulationError("bandwidth rate must be positive")
        self.sim = sim
        self.rate = rate_bytes_per_s
        self.overhead = per_message_overhead_s
        #: The reservation clock: when the line's last booking ends. It may
        #: lie in the past (an idle line); :attr:`busy_until` clamps it.
        self.available_at = 0.0
        self.bytes_total = 0
        self.messages_total = 0

    def reserve(self, nbytes: int, earliest: Optional[float] = None) -> float:
        """Book *nbytes* onto the line; returns the completion time.

        *earliest* is the time the first byte can possibly be on this line
        (e.g. after propagation from the sender); defaults to now.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        start = self.available_at
        if start < self.sim.now:
            start = self.sim.now
        if earliest is not None and start < earliest:
            start = earliest
        done = start + self.overhead + nbytes / self.rate
        self.available_at = done
        self.bytes_total += nbytes
        self.messages_total += 1
        return done

    @property
    def busy_until(self) -> float:
        """The time at which the line next becomes idle."""
        return max(self.available_at, self.sim.now)

    def snapshot(self) -> Tuple[int, int]:
        """``(bytes_total, messages_total)`` so far."""
        return self.bytes_total, self.messages_total
