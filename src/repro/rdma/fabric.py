"""The switched fabric connecting all NIC ports.

The paper's cluster uses a single InfiniBand FDR 4x switch, so the fabric
model is intentionally simple: every message pays one propagation delay
(``one_way_latency_s``) plus store-and-forward occupancy of the sender's TX
channel and the receiver's RX channel. The switch itself is never the
bottleneck — per-port bandwidth and server CPUs are, exactly as in the
paper's analysis (Section 2.3).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.config import NetworkConfig
from repro.obs.spans import LEG
from repro.sim import Simulator
from repro.sim.resources import BandwidthChannel

__all__ = ["Fabric", "stamped_leg"]


def stamped_leg(
    obs: Any,
    now: float,
    tx: BandwidthChannel,
    rx: BandwidthChannel,
    wire: int,
    latency: float,
) -> float:
    """The hub-on branch of every wire leg: the two bookings of the hub-off
    branch beside each call site, in the same order, then the leg's
    ``(LEG, now, tx_start, arrival, rx_start, done)`` tuple appended to the
    log of the operation the running process works for (none outside one);
    :func:`~repro.obs.attribution.leg_segments` splits it into
    ``nic_queue`` and ``network_flight`` when the log is read. When a line
    starts on the message is its reservation clock just before the booking
    (an attribute read: it moves nothing), clamped to when the message can
    be there. Returns the completion time."""
    tx_start = tx.available_at
    if tx_start < now:
        tx_start = now
    arrival = tx.reserve(wire) + latency
    rx_start = rx.available_at
    if rx_start < arrival:
        rx_start = arrival
    done = rx.reserve(wire, arrival)
    process = obs.sim._active
    frame = process.span if process is not None else None
    if frame is not None:
        frame[0].events.append((LEG, now, tx_start, arrival, rx_start, done))
    return done


class Fabric:
    """Latency/bandwidth model shared by all queue pairs."""

    def __init__(self, sim: Simulator, config: NetworkConfig) -> None:
        self.sim = sim
        self.config = config
        #: Optional :class:`repro.rdma.faults.FaultInjector`. While None
        #: (the default) queue pairs take the exact fault-free fast path;
        #: attaching one enables message faults, crash windows, retries and
        #: lock-lease recovery cluster-wide.
        self.injector = None
        #: Optional :class:`repro.nam.replication.ReplicationManager`, set
        #: by the cluster when ``replication_factor > 1``. While None,
        #: queue pairs and accessors skip every replication hook.
        self.replication = None
        #: Optional :class:`repro.analysis.namsan.events.TraceCollector`
        #: recording every one-sided memory effect for race detection.
        #: While None (the default) emission is a single attribute test.
        self.sanitizer = None
        #: Optional :class:`repro.obs.hub.Observability` hub, set by the
        #: cluster when ``ClusterConfig.observability.enabled`` (or, for its
        #: own lifetime, by a :class:`repro.rdma.tracing.VerbTracer` on a
        #: cluster without one). While None (the default) every metric/span
        #: emission point is a single attribute test and runs are
        #: byte-identical to an uninstrumented build.
        self.obs = None
        # Monotone id for doorbell batches (drawn only while a hub listens).
        self._batch_seq = 0

    def next_batch_id(self) -> int:
        """A fabric-unique id naming one doorbell batch."""
        self._batch_seq += 1
        return self._batch_seq

    def attach_injector(self, injector) -> None:
        """Install a fault injector on every queue pair using this fabric."""
        self.injector = injector

    def detach_injector(self) -> None:
        self.injector = None

    def leg_s(
        self, tx: BandwidthChannel, rx: BandwidthChannel, payload_bytes: int
    ) -> float:
        """Book one message of *payload_bytes* from *tx* to *rx*; returns
        the seconds until it is there, for the caller to sleep or schedule.

        The message occupies the sender's TX line, propagates through the
        switch, then occupies the receiver's RX line. Both line bookings
        happen through channel reservations, here and now, so the whole
        leg costs a single sleep.
        """
        wire = payload_bytes + self.config.header_wire_bytes
        obs = self.obs
        if obs is None:
            tx_done = tx.reserve(wire)
            arrival = tx_done + self.config.one_way_latency_s
            rx_done = rx.reserve(wire, earliest=arrival)
        else:
            rx_done = stamped_leg(
                obs, self.sim.now, tx, rx, wire, self.config.one_way_latency_s
            )
        return rx_done - self.sim.now

    def transmit(
        self, tx: BandwidthChannel, rx: BandwidthChannel, payload_bytes: int
    ) -> Generator[Any, Any, None]:
        """:meth:`leg_s` as a process (what nambench's ledger times)."""
        yield self.leg_s(tx, rx, payload_bytes)

    def local_copy_s(self, payload_bytes: int) -> float:
        """Seconds a same-machine memory access takes (co-located fast
        path): the caller sleeps them, or schedules a reply that far out."""
        return (
            self.config.local_access_latency_s
            + payload_bytes / self.config.local_memory_bandwidth_bytes_per_s
        )
