"""Memory servers: the storage half of the NAM architecture.

A memory server owns a registered memory region (where index pages live),
one NIC port, a shared receive queue, and a pool of RPC worker threads —
one per core — that serve two-sided requests (Section 3.2). One-sided verbs
bypass the workers entirely and only consume NIC/memory bandwidth, which is
precisely the asymmetry the paper studies.

Handlers are registered per operation name by the index designs; a handler
is a generator ``handler(server, call) -> (result, result_wire_bytes)`` over
a :class:`~repro.nam.rpc.TreeCall` that charges its CPU time through
:meth:`MemoryServer.cpu` / :meth:`cpu_bytes`, and its plain result is what
the client's call returns. A request that is not a ``TreeCall`` is
dispatched by its type.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Hashable, Optional, Tuple

from repro.config import ClusterConfig
from repro.errors import NetworkError
from repro.nam.admission import SHARED_POOL, AdmissionController
from repro.nam.allocator import PageAllocator
from repro.nam.machine import PhysicalMachine
from repro.nam.rpc import MUTATING_OPS, TreeCall
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import NicPort
from repro.rdma.qp import RpcEnvelope
from repro.rdma.verbs import VerbStats
from repro.sim import Simulator, Store

__all__ = ["MemoryServer"]

Handler = Callable[["MemoryServer", Any], Generator[Any, Any, Tuple[Any, int]]]


class MemoryServer:
    """One memory server: region + allocator + SRQ + RPC worker pool."""

    def __init__(
        self,
        sim: Simulator,
        server_id: int,
        machine: PhysicalMachine,
        port: NicPort,
        config: ClusterConfig,
        crosses_qpi: bool,
    ) -> None:
        self.sim = sim
        self.server_id = server_id
        self.machine = machine
        self.port = port
        self.config = config
        self.region = MemoryRegion(config.region_initial_bytes, config.region_max_bytes)
        self.allocator = PageAllocator(self.region, config.tree.page_size)
        admission_config = config.admission
        if admission_config.enabled:
            # Queue-based load leveling: every worker-pool queue is bounded
            # and the admission controller bounces overflow NIC-side.
            self.srq = Store(sim, capacity=admission_config.max_queue_depth)
            self._bulkhead_queues: Dict[str, Store] = {
                tenant: Store(sim, capacity=admission_config.max_queue_depth)
                for tenant in (admission_config.bulkhead_workers or {})
            }
            self.admission: Optional[AdmissionController] = AdmissionController(
                self, admission_config
            )
        else:
            self.srq = Store(sim)
            self._bulkhead_queues = {}
            self.admission = None
        self.stats = VerbStats()
        #: Memory accesses from the second socket cross QPI (Section 6.1).
        self.qpi_factor = config.cpu.qpi_penalty if crosses_qpi else 1.0
        self._handlers: Dict[Hashable, Handler] = {}
        #: Set by :meth:`Cluster.attach_faults`; while present, the worker
        #: loop honors crash windows and at-most-once RPC semantics.
        self.injector: Any = None
        #: Backup replica stores hosted here, keyed by the logical server
        #: id they replicate (``replication_factor > 1`` only).
        self.backup_regions: Dict[int, MemoryRegion] = {}
        #: Set by the cluster when replication is enabled; worker loops
        #: then charge mirror legs for mutating RPCs before acking.
        self.replication = None
        #: Optional :class:`repro.analysis.namsan.events.TraceCollector`;
        #: local accessors emit their page/word effects through it.
        self.sanitizer: Any = None
        #: Optional :class:`repro.obs.hub.Observability` hub (set by the
        #: cluster when observability is enabled). Worker loops and local
        #: accessors emit RPC/lock metrics through it; while None each
        #: emission point is a single attribute test.
        self.obs = None
        #: Decode memo of the local accessors: the cluster's one shared dict
        #: (see ``Cluster.decode_memo``), a private one on a hand-built server.
        self.decode_memo: Dict[int, Any] = {}
        #: Index-design state keyed by (design, index name) — e.g. the
        #: server-local B-link trees the RPC handlers operate on.
        self.app: Dict[Any, Any] = {}
        self._workers_started = False
        self._busy_time = 0.0
        self._busy_since_reset = 0.0
        self.rpcs_handled = 0
        #: Reliable connections terminating here; without shared receive
        #: queues every RPC pays a poll over all of them (Section 3.2).
        self.connected_qps = 0

    # -- CPU accounting ------------------------------------------------------

    def cpu(self, seconds: float) -> float:
        """Seconds to ``yield`` to charge *seconds* of worker CPU (QPI-adjusted)."""
        return seconds * self.qpi_factor

    def cpu_bytes(self, nbytes: int) -> float:
        """Seconds to ``yield`` for copying/serializing *nbytes* on a worker."""
        return self.cpu(nbytes * self.config.cpu.per_byte_cost_s)

    # -- RPC dispatch ----------------------------------------------------------

    def submit(self, envelope: RpcEnvelope) -> None:
        """Enqueue an arriving RPC envelope (the NIC-side entry point).

        Without admission control this is exactly the old unbounded
        ``srq.put`` — one extra attribute test on the hot path. With it,
        the controller routes the envelope to its bulkhead's bounded
        queue or bounces it with a :class:`~repro.nam.rpc.ThrottledResponse`.
        """
        admission = self.admission
        if admission is None:
            self.srq.put(envelope)
        else:
            admission.submit(envelope)

    def rpc_queue(self, pool: str) -> Store:
        """The worker-pool queue backing *pool* (a bulkhead tenant name or
        :data:`~repro.nam.admission.SHARED_POOL`)."""
        if pool == SHARED_POOL:
            return self.srq
        return self._bulkhead_queues[pool]

    @property
    def rpc_backlog(self) -> int:
        """RPCs waiting across all worker-pool queues (the load-leveling
        signal; equals ``len(self.srq)`` when no bulkheads are carved)."""
        backlog = len(self.srq)
        for queue in self._bulkhead_queues.values():
            backlog += len(queue)
        return backlog

    def register_handler(self, op: Hashable, handler: Handler) -> None:
        """Install *handler* for the tree calls named *op* (or for requests
        of type *op*) and make sure the worker pool is running."""
        self._handlers[op] = handler
        if not self._workers_started:
            self._workers_started = True
            cores = self.config.cpu.cores_per_server
            bulkheads = (
                self.config.admission.bulkhead_workers
                if self.admission is not None
                else None
            )
            if bulkheads:
                # Bulkhead isolation: dedicated workers drain dedicated
                # queues; whatever cores remain form the shared pool.
                # Config validation guarantees at least one shared core.
                for tenant, workers in bulkheads.items():
                    queue = self._bulkhead_queues[tenant]
                    for _ in range(workers):
                        self.sim.process(self._worker_loop(queue))
                    cores -= workers
            for _ in range(cores):
                self.sim.process(self._worker_loop(self.srq))

    def _worker_loop(self, queue: Store = None) -> Generator[Any, Any, None]:
        """One RPC worker: pop a request off the SRQ, run its handler,
        ship the response. The worker is occupied for the handler's whole
        service time — including spin waits on node locks, which is what
        degrades the two-sided designs under write contention (Figure 12).
        """
        if queue is None:
            queue = self.srq
        cpu_config = self.config.cpu
        while True:
            envelope: RpcEnvelope = yield queue.get()
            injector = self.injector
            if injector is not None:
                if self.server_id in injector.down or (
                    envelope.epoch != injector.crash_epochs[self.server_id]
                ):
                    # The server is down, or this request was queued before
                    # a crash that wiped the SRQ: it is simply lost.
                    continue
                cached = envelope.qp.rpc_cached(envelope.seq)
                if cached is not None:
                    # A retransmit of a request we already executed: replay
                    # the remembered response, never re-run the handler.
                    yield self.cpu(cpu_config.rpc_fixed_cost_s)
                    injector.stats["rpc_replays"] += 1
                    # Post as the issuing op (hub on; else both are None),
                    # so the replayed response's leg stamps onto its span.
                    self.sim._active.span = envelope.span
                    envelope.complete(*cached)
                    self.sim._active.span = None
                    continue
                if not envelope.qp.rpc_begin(envelope.seq):
                    # A duplicate of a request another worker is handling
                    # right now; the original will answer.
                    continue
            started = self.sim.now
            span = envelope.span
            if span is not None:
                # Adopt the issuing process's frame for the handler's
                # duration so server-side events (descent steps, lock
                # spins, nested verbs) log into the client's operation.
                # Observability only: envelopes carry one solely when the
                # hub is attached.
                self.sim._active.span = span
            fixed_cost = cpu_config.rpc_fixed_cost_s
            if not cpu_config.use_srq:
                # One receive queue per client: the worker scans them all.
                fixed_cost += (
                    cpu_config.receive_queue_poll_cost_s * self.connected_qps
                )
            yield self.cpu(fixed_cost)
            payload = envelope.payload
            op = payload.op if payload.__class__ is TreeCall else payload.__class__
            handler = self._handlers.get(op)
            if handler is None:
                raise NetworkError(
                    f"memory server {self.server_id} has no handler for {op!r}"
                )
            try:
                response, wire_bytes = yield from handler(self, payload)
            except Exception:
                if injector is not None and (
                    self.server_id in injector.down
                    or envelope.epoch != injector.crash_epochs[self.server_id]
                ):
                    # The server crashed under this worker mid-handler: with
                    # destructive crashes (replication) the region was wiped
                    # out from beneath it. The request simply dies with the
                    # server; the client's retry/failover path covers it.
                    if span is not None:
                        self.sim._active.span = None
                    continue
                raise
            yield self.cpu_bytes(wire_bytes)
            replication = self.replication
            if replication is not None and op in MUTATING_OPS:
                # Mirror-before-ack: the handler's page mutations are
                # already byte-converged on the backups (synchronous
                # region mirrors); here the worker charges the wire legs
                # of shipping the dirtied page before acknowledging, so a
                # client never holds an ack a failover could lose.
                yield from replication.mirror_legs(
                    payload.partition, self.config.tree.page_size
                )
            if injector is not None:
                envelope.qp.rpc_finish(envelope.seq, response, wire_bytes)
            self.rpcs_handled += 1
            self._busy_time += self.sim.now - started
            obs = self.obs
            if obs is not None:
                # Depth is the backlog left in this worker's queue as it
                # frees up — the queueing signal Figure 12's degradation is
                # made of; service time spans handler + spins + mirror legs.
                obs.rpc_served(
                    self.server_id, len(queue), self.sim.now - started
                )
                if span is not None:
                    if envelope.enqueued_at is not None:
                        obs.stamp_span(
                            span, "server_rpc_queue", envelope.enqueued_at, started
                        )
                    obs.stamp_span(span, "server_cpu", started, self.sim.now)
            # Posting the SEND books the response leg here and now: after
            # the sample rpc_served takes of the TX line, and while the
            # adopted span is still this worker's, so the leg stamps onto it.
            envelope.complete(response, wire_bytes)
            if span is not None:
                self.sim._active.span = None

    # -- utilization reporting ---------------------------------------------------

    def reset_utilization(self) -> None:
        """Start the busy-time accumulator afresh (after warm-up)."""
        self._busy_since_reset = self._busy_time

    def cpu_utilization(self, window_seconds: float) -> float:
        """Mean worker-pool utilization over the last *window_seconds*."""
        if window_seconds <= 0:
            return 0.0
        busy = self._busy_time - self._busy_since_reset
        return busy / (window_seconds * self.config.cpu.cores_per_server)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryServer({self.server_id}, machine={self.machine.machine_id})"
