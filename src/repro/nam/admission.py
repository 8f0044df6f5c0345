"""Memory-server admission control: token buckets, bounded queues, bulkheads.

Under closed-loop load a NAM memory server can never be pushed past
saturation — clients politely wait for replies. Under *open-loop* load
(docs/overload.md) arrivals keep coming whether or not the server keeps
up, and an unbounded SRQ turns every excess request into queueing delay:
latency grows linearly with the backlog and the system "collapses"
exactly as the flash-crowd experiment (``ext_overload``) shows.

:class:`AdmissionController` is the fix. It sits on the enqueue path
(:meth:`repro.nam.memory_server.MemoryServer.submit`) and decides, in
zero simulated time, whether an arriving RPC envelope may occupy queue
space. Rejected envelopes are completed immediately with a
:class:`~repro.nam.rpc.ThrottledResponse` — the NIC bounces the message
without ever waking a worker, so a flood's rejections cost wire time but
no server CPU.

Everything here is deterministic: token buckets refill from elapsed
simulated time, no randomness, no wall clocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.config import AdmissionConfig
from repro.nam.rpc import ThrottledResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.rdma.qp import RpcEnvelope
    from repro.sim.resources import Store

__all__ = ["TokenBucket", "AdmissionController", "SHARED_POOL", "TENANT_BURST_OPS"]

#: Queue key for tenants without a dedicated bulkhead.
SHARED_POOL = "shared"
#: Token-bucket burst capacity (tokens), shared by all rate-limited tenants.
TENANT_BURST_OPS = 32.0


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Refill is computed lazily from elapsed simulated time on every
    :meth:`try_take`, so the bucket costs no events and no timers.
    """

    __slots__ = ("rate", "burst", "tokens", "_last_refill")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last_refill = now

    def try_take(self, now: float) -> bool:
        """Consume one token if available; refills from elapsed sim time."""
        elapsed = now - self._last_refill
        if elapsed > 0.0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self._last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-memory-server admission policy (docs/overload.md).

    Gates, in order, cheapest first:

    1. token bucket for rate-limited tenants (``reason="rate-limit"``);
    2. bounded worker-pool queue (``reason="queue-full"``).

    Bulkhead routing itself never rejects — it only decides *which*
    bounded queue (dedicated vs. shared) the request competes for, so a
    flooding tenant fills its own queue and leaves the shared pool alone.
    """

    def __init__(self, server, config: AdmissionConfig) -> None:
        self.server = server
        self.config = config
        self._buckets: Dict[Optional[str], TokenBucket] = {}
        if config.tenant_rate_ops:
            now = server.sim.now
            for tenant, rate in config.tenant_rate_ops.items():
                self._buckets[tenant] = TokenBucket(rate, TENANT_BURST_OPS, now)
        #: Rejections by reason, for tests and pull collectors.
        self.rejected: Dict[str, int] = {"rate-limit": 0, "queue-full": 0}
        self.admitted = 0

    def pool_of(self, tenant: Optional[str]) -> str:
        """Queue key the tenant's requests compete for."""
        bulkheads = self.config.bulkhead_workers
        if bulkheads and tenant in bulkheads:
            return tenant  # type: ignore[return-value]
        return SHARED_POOL

    def submit(self, envelope: "RpcEnvelope") -> None:
        """Admit *envelope* onto its pool's queue, or bounce it NIC-side."""
        tenant = envelope.tenant
        bucket = self._buckets.get(tenant)
        now = self.server.sim.now
        if bucket is not None and not bucket.try_take(now):
            self._reject(envelope, "rate-limit")
            return
        queue: "Store" = self.server.rpc_queue(self.pool_of(tenant))
        if not queue.try_put(envelope):
            if bucket is not None:
                # The request died at the queue gate; hand the rate token
                # back so the bucket meters *admitted* work only.
                bucket.tokens = min(bucket.burst, bucket.tokens + 1.0)
            self._reject(envelope, "queue-full")
            return
        self.admitted += 1
        if envelope.qp.fabric.injector is not None:
            # Remember that this logical call has an admitted attempt so a
            # later retransmit's bounce can be suppressed (see _reject).
            envelope.qp._rpc_admitted.add(envelope.seq)
        obs = self.server.obs
        if obs is not None:
            obs.admission_accepted(self.server.server_id)

    def _reject(self, envelope: "RpcEnvelope", reason: str) -> None:
        self.rejected[reason] += 1
        obs = self.server.obs
        if obs is not None:
            obs.admission_rejected(self.server.server_id, reason)
        qp = envelope.qp
        if qp.fabric.injector is not None and envelope.seq in qp._rpc_admitted:
            # An earlier attempt of this logical call was admitted and may
            # be queued or executing right now; completing the shared reply
            # with a bounce would let the client claim "no side effect"
            # while the admitted attempt mutates state. Drop the bounce —
            # the admitted attempt (or the retry loop's timeout) answers.
            return
        # Bounce at the NIC: ship a header-sized rejection back over the
        # wire without consuming a worker. The client raises
        # ThrottledError/AdmissionRejectedError when it sees the marker.
        response = ThrottledResponse(reason)
        envelope.complete(response, response.wire_bytes)
