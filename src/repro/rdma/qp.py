"""Reliable-connection queue pairs.

A :class:`QueuePair` connects a client endpoint (a compute-server thread's
NIC port) to one memory server and exposes the verbs of Section 2.1 as
simulation processes:

* one-sided: :meth:`~QueuePair.read`, :meth:`~QueuePair.write`,
  :meth:`~QueuePair.compare_and_swap`, :meth:`~QueuePair.fetch_and_add` —
  executed against the server's registered
  :class:`~repro.rdma.memory.MemoryRegion` without involving its CPU;
* two-sided: :meth:`~QueuePair.call` — an RPC implemented with
  SEND/RECEIVE over the server's shared receive queue (SRQ, Section 3.2),
  handled by a memory-server worker.

One executor for one-sided verbs. The paper's cost model prices all four
one-sided verbs the same way — one request message, one response message,
an effect on remote memory — and so does this module: every one-sided
post, whatever its shape, is a *chain* of 1..N work-queue entries behind
one doorbell, run by the single generator :meth:`QueuePair._post`. A WQE
is a plain tuple ``(verb, payload_bytes, offset, ...)`` (see
:meth:`QueuePair._post` for the per-verb tail); nothing is staged as a
closure, the executor dispatches the effect on the verb. The public verbs
are few-line posters onto it:

* a single verb is a chain of one that returns its bare result and
  consumes no batch id; :meth:`~QueuePair.read_view` is :meth:`read` with
  the READ entry's borrow flag set;
* :meth:`~QueuePair.write_faa_chain` — the unlock — is the chain of two;
* :class:`VerbBatch` (:meth:`QueuePair.batch`) stages any chain and gets
  every entry's result back in posting order.

A chain is one request wire message carrying every entry's payload and,
via selective signaling (only the last WQE is posted signaled), one
response/completion message. Per-message fixed costs are paid once per leg
instead of once per verb; effects apply in posting order. When the
cluster is co-located (Appendix A.3) and the remote server lives on the
same physical machine, the chain takes the local-memory fast path and
bypasses the NIC entirely. See docs/performance.md.

The executor has two arms, and the only real difference between them is
*when* the effects land. Fault-free (no injector, or a local chain) they
land at completion, after the response leg. While a
:class:`~repro.rdma.faults.FaultInjector` is attached to the fabric, every
non-local chain runs an attempt loop governed by
:class:`~repro.config.RetryConfig` — a lost request or response is
detected after ``timeout_s``, retried with exponential backoff and
deterministic jitter, and surfaces
:class:`~repro.errors.RetriesExhaustedError` once the budget is spent —
and the effects land when the request is first *delivered*. The modeled
transport behaves like InfiniBand RC with responder-side duplicate
detection: a chain's memory effects are applied *at most once* per logical
post (retries replay the first outcome, mirroring the NIC's atomic
response cache / PSN dedup), and two-sided requests carry sequence numbers
the server uses to replay — never re-execute — duplicated handlers. The
two-sided :meth:`~QueuePair.call` has the same two arms behind one shared
head and tail, and so has its reply (:meth:`~QueuePair._spawn_reply`):
fault-free, posting the response SEND *schedules* it, triggered at once;
under an injector a carrier event triggers it when the leg ends, since the
attempt loop reads ``reply.triggered`` as "arrived". A message asks the
injector for one verdict wherever its draws are adjacent (docs/faults.md).

Failover is routing, and it is decided where exhaustion is detected: the
attempt-loop arm of :meth:`~QueuePair._post` and of
:meth:`~QueuePair.call` snapshots the directory epoch when it starts, and
once the budget is spent asks
:meth:`~repro.nam.replication.ReplicationManager.handle_failure` whether
the route changed (someone else failed over, or the primary is down and
this client promotes a backup). If it did, the same chain or request is
re-posted on the owning compute server's re-routed queue pair instead of
raising; a healthy primary behind a lossy link still raises. Nothing above
this module knows the policy (docs/replication.md).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    AdmissionRejectedError,
    NetworkError,
    RetriesExhaustedError,
    ThrottledError,
)
from repro.rdma.fabric import Fabric, stamped_leg
from repro.rdma.nic import NicPort
from repro.rdma.verbs import Verb
from repro.sim import Event, Simulator

__all__ = ["QueuePair", "RpcEnvelope", "VerbBatch"]

READ = Verb.READ
WRITE = Verb.WRITE
CAS = Verb.CAS
FETCH_ADD = Verb.FETCH_ADD
#: ``(kind, verb name)`` a landed effect is reported under to the trace
#: sanitizer. Strings match repro.analysis.namsan.events (kept literal to
#: avoid an rdma -> analysis import).
_SANITIZER_KINDS = {
    READ: ("read", "READ"),
    WRITE: ("write", "WRITE"),
    CAS: ("atomic", "CAS"),
    FETCH_ADD: ("atomic", "FETCH_ADD"),
}


class RpcEnvelope:
    """A two-sided request in flight, as seen by the memory server.

    The server worker pops envelopes off the SRQ, runs the handler, and
    finishes with :meth:`complete`, which ships the response back to the
    client asynchronously (the NIC does the transfer; the worker is free
    again immediately — mirroring how a real RPC thread posts a SEND and
    moves on). Under fault injection an envelope additionally carries the
    logical call's sequence number (for duplicate suppression) and the
    destination's crash epoch at enqueue time (requests queued before a
    crash are lost with it).
    """

    __slots__ = (
        "qp", "payload", "_reply", "seq", "epoch", "tenant", "span", "enqueued_at"
    )

    def __init__(
        self,
        qp: "QueuePair",
        payload: Any,
        reply: Event,
        seq: int = 0,
        epoch: int = 0,
        tenant: Optional[str] = None,
        span: Any = None,
        enqueued_at: Optional[float] = None,
    ) -> None:
        self.qp = qp
        self.payload = payload
        self._reply = reply
        self.seq = seq
        self.epoch = epoch
        #: Workload tenant that issued the call; admission control keys its
        #: token buckets and bulkhead routing on this (None = anonymous).
        self.tenant = tenant
        #: Issuing process's frame (its ``Process.span``; observability
        #: only, None when the hub is detached). Workers stamp queue-wait /
        #: CPU segments onto it and adopt it while running the handler.
        self.span = span
        #: Sim time the request reached the server's SRQ (observability
        #: only); the worker's dequeue time minus this is the queue wait.
        self.enqueued_at = enqueued_at

    def complete(self, response: Any, response_wire_bytes: int) -> None:
        """Send *response* back to the caller (non-blocking for the worker)."""
        self.qp._spawn_reply(self._reply, response, response_wire_bytes, self.span)


class QueuePair:
    """One client's reliable connection to one memory server."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        local_port: NicPort,
        remote_server: Any,
        use_local_fast_path: bool = False,
        region: Any = None,
        logical_id: int = None,
        owner: Any = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.local_port = local_port
        self.remote = remote_server
        self.is_local = use_local_fast_path
        #: Owning :class:`~repro.nam.compute_server.ComputeServer`: names
        #: this QP's actor in sanitizer traces and resolves the re-routed
        #: queue pair a spent retry budget re-posts on (None for anonymous
        #: QPs, e.g. in unit tests — those never fail over).
        self.owner = owner
        # Replication indirection: verbs address the *logical* server's
        # authoritative region, which after a failover may live on a
        # different physical host than ``remote_server`` originally did.
        # Without replication both default to the remote server's own.
        self.region = region if region is not None else remote_server.region
        self.logical_id = (
            logical_id if logical_id is not None else remote_server.server_id
        )
        # At-most-once RPC state (only touched under fault injection).
        self._next_seq = 0
        self._rpc_inflight: set = set()
        self._rpc_cache: Dict[int, Tuple[Any, int]] = {}
        #: Sequence numbers with at least one *admitted* attempt; admission
        #: control suppresses bounces for these so an
        #: AdmissionRejectedError always certifies "no side effect".
        self._rpc_admitted: set = set()
        # Hot-path constants: the network config, both ports' channels,
        # and the remote's verb ledger are fixed for the life of a
        # connection, so the per-verb attribute walks are paid once here
        # instead of on every READ/WRITE (counters are windowed by
        # snapshot/delta, never by object replacement).
        config = fabric.config
        self._header_wire = config.header_wire_bytes
        self._latency = config.one_way_latency_s
        self._request_wire = config.request_wire_bytes
        self._ltx = local_port.tx
        self._lrx = local_port.rx
        self._rtx = remote_server.port.tx
        self._rrx = remote_server.port.rx
        self._rstats = remote_server.stats

    # -- internals -----------------------------------------------------------

    def _emit(self, wqe: Tuple, result: Any) -> None:
        """Report one landed effect to the attached trace sanitizer — at
        the simulated instant it hits the region, exactly once per WQE on
        either arm of the executor. An atomic's lock epoch is the old word
        it returned."""
        verb = wqe[0]
        kind, name = _SANITIZER_KINDS[verb]
        epoch = result[1] if verb is CAS else result if verb is FETCH_ADD else 0
        self.fabric.sanitizer.emit(
            f"c{self.owner.server_id}" if self.owner is not None else "c?",
            kind,
            name,
            self.logical_id,
            wqe[2],
            wqe[1],
            self.sim.now,
            lock_epoch=epoch,
        )

    def _rerouted(self, observed_epoch: int) -> Optional["QueuePair"]:
        """The retry budget is spent: the queue pair to re-post on, or None
        to raise. *observed_epoch* is the directory epoch the attempt loop
        started under. Failover is for dead servers, not lossy links:
        :meth:`ReplicationManager.handle_failure` says yes only when the
        directory already moved on or it just promoted a backup of a down
        primary, and the promotion has re-pointed the owner's table."""
        replication = self.fabric.replication
        if (
            replication is None
            or self.owner is None
            or not replication.handle_failure(self.logical_id, observed_epoch)
        ):
            return None
        return self.owner.qps[self.logical_id]

    # -- one-sided verbs -------------------------------------------------------

    def _post(
        self, wqes, n: int, chained: bool, whole: bool
    ) -> Generator[Any, Any, Any]:
        """The one executor: post a chain of *n* WQEs behind one doorbell.

        *wqes* is a sequence of plain tuples, dispatched on the verb:

        * ``(READ, length, offset, borrow)`` — *borrow* asks for a
          zero-copy view instead of a copy (honoured fault-free only);
        * ``(WRITE, len(data), offset, data)``;
        * ``(CAS, 8, offset, expected, new)``;
        * ``(FETCH_ADD, 8, offset, delta)``.

        *chained* reports the chain to the hub, which names it with a
        fabric batch id shared by its verb records (drawn only while a hub
        listens); a single verb passes False. *whole* returns every
        entry's result in posting order; otherwise only the last — the one
        signaled — entry's result comes back, bare. *n* is passed in
        because ``len()`` is a call the profiler counts.

        Stages, in order: doorbell, stats and leg sizing, request leg,
        atomic surcharge, response leg, effects with their replication
        mirror legs, hub report. Fault-free the effects land at completion;
        under an injector the attempt loop lands them once, when the
        request is first delivered, and retries only re-learn the outcome.
        The chain's two wire legs live or die as a unit (one drop draw per
        leg, at its most fault-prone member's). Either way the mirror legs
        are charged before the completion: the hub hears of them first.
        """
        if not n:
            return []
        fabric = self.fabric
        sim = self.sim
        obs = fabric.obs
        local = self.is_local
        if not local:
            port = self.local_port
            port.doorbells += 1
            port.wqes_posted += n
        batch_id = None
        if chained and obs is not None:
            if not local:
                obs.batch_executed.observe(n)
            batch_id = fabric.next_batch_id()
        started_at = sim.now
        # Count the chain and size its two messages (integer byte sums; the
        # per-message header is added once per leg): every entry ships one
        # request word, a WRITE its data and an atomic its two operands;
        # back come a READ's bytes, an atomic's old word, and for a WRITE
        # nothing but the completion.
        verb_ops = self._rstats.ops
        verb_bytes = self._rstats.bytes
        request_bytes = n * self._request_wire
        response_bytes = atomics = 0
        for wqe in wqes:
            verb = wqe[0]
            nbytes = wqe[1]
            verb_ops[verb] += 1
            verb_bytes[verb] += nbytes
            if verb is READ:
                response_bytes += nbytes
            elif verb is WRITE:
                request_bytes += nbytes
            else:
                request_bytes += 16
                response_bytes += 8
                atomics += 1
        region = self.region
        injector = fabric.injector
        replication = fabric.replication
        results: Optional[List[Any]] = [] if whole else None
        if local or injector is None:
            if local:
                yield fabric.local_copy_s(sum([wqe[1] for wqe in wqes]))
            else:
                # Both legs book the sender's TX line before the
                # receiver's RX line and cost one sleep each; with the
                # hub on, stamped_leg makes the same two bookings.
                latency = self._latency
                wire = request_bytes + self._header_wire
                if obs is None:
                    arrival = self._ltx.reserve(wire) + latency
                    done = self._rrx.reserve(wire, arrival)
                else:
                    done = stamped_leg(obs, sim.now, self._ltx, self._rrx, wire, latency)
                yield done - sim.now
                if atomics:
                    yield atomics * fabric.config.atomic_extra_latency_s
                wire = response_bytes + self._header_wire
                if obs is None:
                    arrival = self._rtx.reserve(wire) + latency
                    done = self._lrx.reserve(wire, arrival)
                else:
                    done = stamped_leg(obs, sim.now, self._rtx, self._lrx, wire, latency)
                yield done - sim.now
            # The effects land at completion, in posting order; *mirror* is
            # what a mutation fans out to the backups (nothing for a READ
            # or a failed CAS).
            sanitizer = fabric.sanitizer
            for wqe in wqes:
                verb = wqe[0]
                mirror = 0
                if verb is READ:
                    if wqe[3]:
                        result = region.read_view(wqe[2], wqe[1])
                    else:
                        result = region.read(wqe[2], wqe[1])
                elif verb is WRITE:
                    result = region.write(wqe[2], wqe[3], wqe[1])
                    mirror = wqe[1]
                elif verb is CAS:
                    result = region.compare_and_swap(wqe[2], wqe[3], wqe[4])
                    if result[0]:
                        mirror = 8
                else:
                    result = region.fetch_and_add(wqe[2], wqe[3])
                    mirror = 8
                if sanitizer is not None:
                    self._emit(wqe, result)
                if mirror and replication is not None:
                    yield from replication.mirror_legs(self.logical_id, mirror)
                if whole:
                    results.append(result)
        else:
            retry = injector.retry
            observed_epoch = replication.catalog.epoch if replication is not None else 0
            server_id = self.remote.server_id
            lead = wqes[0][0]
            followers = [wqe[0] for wqe in wqes[1:]] if n > 1 else ()
            last_attempt = retry.max_attempts - 1
            landed = False
            for attempt in range(retry.max_attempts):
                if attempt:
                    # A re-posted chain counts again.
                    for wqe in wqes:
                        self._rstats.record(wqe[0], wqe[1])
                yield fabric.leg_s(self._ltx, self._rrx, request_bytes)
                duplicated, lost = injector.request_verdict(lead, server_id, followers)
                if duplicated:
                    # The NIC discards the duplicate; it only burns RX bandwidth.
                    self._rrx.reserve(request_bytes + self._header_wire)
                if not lost:
                    if not landed:
                        # RC duplicate suppression: the effects (and their
                        # primary-then-backup mirror legs) happen on first
                        # delivery and never again. Same dispatch as the
                        # fault-free arm, except that a retried READ needs
                        # bytes that outlive the attempt: a borrow is
                        # served as a copy.
                        landed = True
                        sanitizer = fabric.sanitizer
                        for wqe in wqes:
                            verb = wqe[0]
                            mirror = 0
                            if verb is READ:
                                result = region.read(wqe[2], wqe[1])
                            elif verb is WRITE:
                                result = region.write(wqe[2], wqe[3], wqe[1])
                                mirror = wqe[1]
                            elif verb is CAS:
                                result = region.compare_and_swap(wqe[2], wqe[3], wqe[4])
                                if result[0]:
                                    mirror = 8
                            else:
                                result = region.fetch_and_add(wqe[2], wqe[3])
                                mirror = 8
                            if sanitizer is not None:
                                self._emit(wqe, result)
                            if mirror and replication is not None:
                                yield from replication.mirror_legs(self.logical_id, mirror)
                            if whole:
                                results.append(result)
                    if atomics:
                        yield atomics * fabric.config.atomic_extra_latency_s
                    delay = injector.extra_delay(lead, server_id)
                    if delay > 0.0:
                        yield delay
                    yield fabric.leg_s(self._rtx, self._lrx, response_bytes)
                    if not injector.lost(lead, server_id, followers):
                        break
                # The request or response was lost: wait out the detection
                # timeout, then back off before re-posting the chain.
                if obs is not None:
                    obs.attempt_failed(lead, server_id, retried=attempt < last_attempt)
                wait_start = sim.now
                yield retry.timeout_s
                if attempt < last_attempt:
                    yield injector.backoff_delay(attempt)
                if obs is not None:
                    obs.stamp("client_backoff", wait_start, sim.now)
            else:
                rerouted = self._rerouted(observed_epoch)
                if rerouted is not None:
                    return (yield from rerouted._post(wqes, n, chained, whole))
                what = lead.value if n == 1 else f"doorbell batch of {n} verbs"
                raise RetriesExhaustedError(
                    f"{what} to memory server {server_id} gave up after "
                    f"{retry.max_attempts} attempts"
                )
        if obs is not None:
            for wqe in wqes:
                obs.verb_completed(
                    wqe[0], self.remote.server_id, wqe[1], started_at, sim.now, local, batch_id
                )
        return results if whole else result

    def read(self, offset: int, length: int) -> Generator[Any, Any, bytes]:
        """RDMA READ *length* bytes at *offset* of the remote region."""
        return self._post(((READ, length, offset, False),), 1, False, False)

    def read_view(self, offset: int, length: int) -> Generator[Any, Any, memoryview]:
        """RDMA READ returning a zero-copy view of the remote region.

        Timing, stats, tracing, and the returned bytes are identical to
        :meth:`read`; only the materialization differs — no copy is made.
        The view aliases live region memory and blocks region growth while
        any reference survives, so callers must consume it *before their
        next simulation yield* and drop every reference (see
        :meth:`MemoryRegion.read_view`). Under fault injection a retried
        READ must outlive its attempt, so the result is the copied
        ``bytes`` of :meth:`read` instead — same content, same contract.
        That copy stays even though the decode memo above it no longer
        looks at the injector: a view held across a retry's backoff would
        block region growth for as long as the retry takes.
        """
        return self._post(((READ, length, offset, True),), 1, False, False)

    def write(self, offset: int, data: bytes) -> Generator[Any, Any, None]:
        """RDMA WRITE *data* at *offset* of the remote region."""
        return self._post(((WRITE, len(data), offset, data),), 1, False, False)

    def compare_and_swap(
        self, offset: int, expected: int, new: int
    ) -> Generator[Any, Any, Tuple[bool, int]]:
        """RDMA CAS on the 8-byte word at *offset*; returns ``(swapped, old)``."""
        return self._post(((CAS, 8, offset, expected, new),), 1, False, False)

    def fetch_and_add(self, offset: int, delta: int) -> Generator[Any, Any, int]:
        """RDMA FETCH_AND_ADD on the 8-byte word at *offset*; returns old value."""
        return self._post(((FETCH_ADD, 8, offset, delta),), 1, False, False)

    def write_faa_chain(self, offset: int, data) -> Generator[Any, Any, int]:
        """Doorbell-chained WRITE + FETCH_ADD(+1) on one page — the
        unlock-release sequence, returning the FAA's old value.

        Exactly ``batch().write(offset, data).fetch_and_add(offset, 1)
        .execute()`` minus the staging object and the result list: RC
        in-order execution applies the page image before the version
        bump, so the pair is a release store in one round trip. Valid
        under fault injection and replication like any other chain.
        """
        return self._post(
            ((WRITE, len(data), offset, data), (FETCH_ADD, 8, offset, 1)),
            2,
            True,
            False,
        )

    def batch(self) -> "VerbBatch":
        """Start a doorbell batch of one-sided verbs on this connection."""
        return VerbBatch(self)
    # -- two-sided RPC ---------------------------------------------------------

    def call(
        self,
        request: Any,
        request_wire_bytes: int,
        tenant: Optional[str] = None,
    ) -> Generator[Any, Any, Any]:
        """Two-sided RPC: SEND *request*, wait for the server's response.

        The request lands in the server's shared receive queue and is
        handled by one of its RPC workers; the response value of that
        handler is returned here. *tenant* tags the envelope for admission
        control; when the server bounces the request the marker response
        surfaces here as :class:`~repro.errors.ThrottledError` /
        :class:`~repro.errors.AdmissionRejectedError`.

        Same shape as :meth:`_post`. Shared head: doorbell, one reply
        event, the issuing span. Fault-free arm: one SEND, wait for the
        reply. Attempt-loop arm (an injector is attached and the server is
        not co-located): at-least-once SENDs, exactly-once handling — the
        one *reply* event spans all attempts, so a response that is merely
        slow (queueing on a loaded worker pool) still completes the call
        even if a retry is already in flight; the retry is then suppressed
        server-side via the sequence number. A spent budget re-posts on
        the promoted route or raises (:meth:`_rerouted`). Shared tail:
        hub report, admission check.
        """
        sim = self.sim
        fabric = self.fabric
        remote = self.remote
        local = self.is_local
        if not local:
            self.local_port.ring_doorbell()
        started_at = sim.now
        reply = sim.event()
        obs = fabric.obs
        span = sim._active.span if obs is not None else None
        injector = fabric.injector
        if local or injector is None:
            remote.stats.record(Verb.SEND, request_wire_bytes)
            if local:
                yield fabric.local_copy_s(request_wire_bytes)
            else:
                yield fabric.leg_s(self._ltx, self._rrx, request_wire_bytes)
            remote.submit(
                RpcEnvelope(
                    self, request, reply, tenant=tenant, span=span,
                    enqueued_at=None if obs is None else sim.now,
                )
            )
            response = yield reply
        else:
            retry = injector.retry
            replication = fabric.replication
            observed_epoch = replication.catalog.epoch if replication is not None else 0
            server_id = remote.server_id
            seq = self._next_seq
            self._next_seq += 1
            last_attempt = retry.max_attempts - 1
            for attempt in range(retry.max_attempts):
                remote.stats.record(Verb.SEND, request_wire_bytes)
                yield fabric.leg_s(self._ltx, self._rrx, request_wire_bytes)
                delay = injector.send_verdict(Verb.SEND, server_id)
                if delay is not None:
                    if delay > 0.0:
                        yield delay
                    # Epoch and duplicate draw after the delay, which a crash may fall in.
                    envelope = RpcEnvelope(
                        self, request, reply, seq=seq, tenant=tenant, span=span,
                        epoch=injector.crash_epochs[server_id], enqueued_at=sim.now,
                    )
                    remote.submit(envelope)
                    if injector.should_duplicate(Verb.SEND, server_id):
                        remote.submit(envelope)  # nobody writes to an envelope
                wait_start = sim.now
                yield reply, retry.timeout_s  # None at the deadline
                if reply.triggered:
                    break
                if obs is not None:
                    obs.attempt_failed(Verb.SEND, server_id, retried=attempt < last_attempt)
                if attempt < last_attempt:
                    yield injector.backoff_delay(attempt)
                    if reply.triggered:
                        break  # landed mid-backoff: keeps its server-stamped segments
                if obs is not None:
                    # The timed-out detection window plus the backoff are
                    # client-side retry delay.
                    obs.stamp("client_backoff", wait_start, sim.now)
            else:
                self._rpc_cache.pop(seq, None)
                self._rpc_admitted.discard(seq)
                self._rpc_inflight.discard(seq)
                rerouted = self._rerouted(observed_epoch)
                if rerouted is not None:
                    return (
                        yield from rerouted.call(request, request_wire_bytes, tenant)
                    )
                raise RetriesExhaustedError(
                    f"rpc to memory server {server_id} gave up after "
                    f"{retry.max_attempts} attempts"
                )
            self._rpc_cache.pop(seq, None)
            self._rpc_admitted.discard(seq)
            response = reply.value
        if obs is not None:
            obs.verb_completed(
                Verb.SEND, remote.server_id, request_wire_bytes, started_at,
                sim.now, local,
            )
        return self._check_admitted(response, started_at)

    def _check_admitted(self, response: Any, started_at: float) -> Any:
        """Translate an admission bounce into its client-side exception."""
        if getattr(response, "throttled", False):
            reason = response.reason
            obs = self.fabric.obs
            if obs is not None:
                # The whole bounced round trip is admission-rejection
                # delay; its priority outranks the wire segments beneath.
                obs.stamp("admission_reject", started_at, self.sim.now)
            if reason == "rate-limit":
                raise ThrottledError(
                    f"memory server {self.remote.server_id} rate-limited "
                    f"the request ({reason})"
                )
            raise AdmissionRejectedError(
                f"memory server {self.remote.server_id} rejected the "
                f"request ({reason})"
            )
        return response

    # -- server-side dedup bookkeeping (used by MemoryServer workers) ---------

    def rpc_begin(self, seq: int) -> bool:
        """True if the worker should execute this envelope's handler;
        False if an identical request is already being handled."""
        if seq in self._rpc_inflight:
            return False
        self._rpc_inflight.add(seq)
        return True

    def rpc_finish(self, seq: int, response: Any, wire_bytes: int) -> None:
        """Remember the handler outcome so retransmits replay, not re-run."""
        self._rpc_inflight.discard(seq)
        self._rpc_cache[seq] = (response, wire_bytes)
        # The server's copy: the fabric's injector may be detached by now.
        limit = self.remote.config.retry.rpc_dedup_cache_entries
        while len(self._rpc_cache) > limit:
            self._rpc_cache.pop(next(iter(self._rpc_cache)))

    def rpc_cached(self, seq: int):
        """The cached ``(response, wire_bytes)`` for *seq*, or None."""
        return self._rpc_cache.get(seq)

    def _spawn_reply(
        self, reply: Event, response: Any, wire_bytes: int, span: Any = None
    ) -> None:
        fabric = self.fabric
        injector = fabric.injector
        if self.is_local:
            reply.succeed(response, fabric.local_copy_s(wire_bytes))  # no line booked
        elif injector is None:
            # Scheduled, not spawned: posting the SEND books the response leg
            # and queues the reply — triggered now — to fire when it ends.
            reply.succeed(response, fabric.leg_s(self._rtx, self._lrx, wire_bytes))
        else:
            delay = injector.send_verdict(Verb.SEND, self.remote.server_id)
            if delay is None:
                return  # lost: not sent
            # Untriggered in flight — call() asks ``reply.triggered`` at its
            # deadline — so a carrier event delivers when the leg ends,
            # unless a replay overtook it.
            def deliver(_carrier: Any = None) -> None:
                if not reply.triggered:
                    reply.succeed(response)

            if delay > 0.0:
                # The delayed minority books its leg after the delay: a
                # process, which also carries the issuing op's span there.
                def late() -> Generator[Any, Any, None]:
                    yield delay
                    yield fabric.leg_s(self._rtx, self._lrx, wire_bytes)
                    deliver()

                self.sim.process(late()).span = span
            else:
                # A plain event fired after the leg: sim.timeout(leg)'s one entry.
                leg = fabric.leg_s(self._rtx, self._lrx, wire_bytes)
                Event(self.sim).succeed(None, leg).callbacks.append(deliver)


class VerbBatch:
    """One-sided verbs chained behind a single doorbell (Section 2.1).

    The posting methods (:meth:`read`, :meth:`write`,
    :meth:`compare_and_swap`, :meth:`fetch_and_add`) only *stage* work-queue
    entries; nothing touches the wire until :meth:`execute`, which hands
    the chain to the queue pair's one executor: one doorbell, every entry
    in one request message. Only the last WQE is posted signaled
    (selective signaling), so the server's single response message
    acknowledges the whole chain. On an RC queue pair the NIC executes the
    entries in posting order, which is what makes a WRITE-then-FAA unlock
    batch a release store followed by the version bump — see
    docs/performance.md.

    Wire costs are exactly the sum of the per-verb request/response sizes;
    what a batch saves is the per-message fixed overhead (header +
    ``message_overhead_s``) and the extra round trips. Each verb still
    produces its own completion value: :meth:`execute` returns the results
    in posting order. Fault semantics are the executor's, the same for a
    batch as for a single verb (:meth:`QueuePair._post`).
    """

    __slots__ = ("qp", "_wqes", "_executed")

    def __init__(self, qp: QueuePair) -> None:
        self.qp = qp
        self._wqes: List[Tuple] = []
        self._executed = False

    def __len__(self) -> int:
        return len(self._wqes)

    def _stage(self, wqe: Tuple) -> "VerbBatch":
        if self._executed:
            raise NetworkError("cannot post to an already-executed VerbBatch")
        self._wqes.append(wqe)
        return self

    # -- posting (returns self for chaining) ---------------------------------

    def read(self, offset: int, length: int) -> "VerbBatch":
        """Stage an RDMA READ of *length* bytes at *offset*."""
        return self._stage((READ, length, offset, False))

    def write(self, offset: int, data: bytes) -> "VerbBatch":
        """Stage an RDMA WRITE of *data* at *offset*."""
        return self._stage((WRITE, len(data), offset, data))

    def compare_and_swap(self, offset: int, expected: int, new: int) -> "VerbBatch":
        """Stage an RDMA CAS; its result slot gets ``(swapped, old)``."""
        return self._stage((CAS, 8, offset, expected, new))

    def fetch_and_add(self, offset: int, delta: int) -> "VerbBatch":
        """Stage an RDMA FETCH_AND_ADD; its result slot gets the old value."""
        return self._stage((FETCH_ADD, 8, offset, delta))

    # -- execution -----------------------------------------------------------

    def execute(self) -> Generator[Any, Any, List[Any]]:
        """Ring the doorbell: ship the chain, return per-verb results in
        posting order."""
        if self._executed:
            raise NetworkError("VerbBatch already executed")
        self._executed = True
        return self.qp._post(self._wqes, len(self._wqes), True, True)
