"""The observability hub: one object wired through the whole fabric.

An :class:`Observability` instance is created by the cluster when
``ClusterConfig.observability.enabled`` is set, attached to the fabric as
``fabric.obs`` and to every memory server as ``server.obs``. Hot paths
reach it through one attribute that is ``None`` on a disabled cluster —
the same no-op fast-path contract the fault injector and race sanitizer
follow. The verb tracer (:mod:`repro.rdma.tracing`) is a reader of this
hub, not a hook of its own: see :attr:`Observability.verb_readers`.

Event attribution (how a verb finds its operation): the simulation kernel
tracks the currently executing :class:`~repro.sim.core.Process` in
``Simulator._active``, and every process carries a ``span`` pointer — the
*frame* ``(root, step, enclosing frame)`` it is running in: the root
record of its operation (whose ``events`` list is the operation's log, see
:mod:`repro.obs.spans`), the id of its innermost open traversal step (0 =
none) and the frame to return to when that step exits. Frames are
inherited at spawn, so parallel partition scans and prefetch fan-out
sub-processes log into their operation, each under its own open step.
Each emit point (``fabric.stamped_leg`` too) appends to ``frame[0].events``;
nothing walks parent links and no identifiers ride the verb APIs.

Metrics are a hybrid of push and pull: latency-shaped quantities
(per-verb latency, RPC service time, batch sizes) are pushed at the
event, while cumulative counters that the simulation already maintains
(NIC doorbells/WQEs/bytes, per-server verb stats, fault-injector and
replication tallies) are *pulled* into the registry only at snapshot
time — zero hot-path cost even when enabled. The hub never schedules
simulation events and never reads wall-clock time (namsan rule N06), so
an enabled run's simulated results are identical to a disabled run's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.config import ObservabilityConfig
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.spans import ENTER, EXIT, STAMP, VERB, OpSpan

__all__ = ["Observability"]

#: Retention bounds for the two span lists (oldest evicted first).
MAX_SAMPLED_SPANS = 256
MAX_SLOW_SPANS = 64


class Observability:
    """Metrics registry + span lifecycle + pull collectors for one cluster."""

    def __init__(self, sim: Any, config: Optional[ObservabilityConfig] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else ObservabilityConfig(enabled=True)
        self.registry = MetricsRegistry(sim, self.config)
        #: Operations kept by sampling (every Nth operation, op 1 included).
        #: Like the flight ring these hold operation records with their
        #: logs; a snapshot renders each one's tree with ``as_dict()``.
        self.sampled_spans: deque = deque(maxlen=MAX_SAMPLED_SPANS)
        #: Operations kept because they exceeded ``slow_op_threshold_s``.
        self.slow_spans: deque = deque(maxlen=MAX_SLOW_SPANS)
        #: Callables ``reader(event, root)`` handed every completed verb's
        #: log tuple and the record of its operation (None outside
        #: one), after the flight ring. Empty unless somebody is reading.
        self.verb_readers: List[Callable[[tuple, Optional[OpSpan]], None]] = []
        #: Operations begun so far; the last one's op id.
        self.ops_observed = 0
        #: Step ids: unique per hub, so unique within any operation's log.
        self._step_seq = 0
        # Pre-resolved instrument handles so hot-path emission is a dict
        # lookup plus attribute bumps, never label sorting. Verb handles
        # are keyed by the ``Verb`` member as posted and carry its name.
        # The unlabelled ones are public: call sites ``.inc()`` them (the
        # doorbell batch histogram ``.observe(wqes)``) directly.
        reg = self.registry
        self._verb_handles: Dict[
            Tuple[Any, int], Tuple[str, Counter, Counter, Histogram]
        ] = {}
        self._rpc_handles: Dict[int, Tuple[Counter, Histogram, Histogram]] = {}
        self._op_handles: Dict[str, Tuple[Counter, Histogram]] = {}
        self.batch_executed = reg.histogram("nam_batch_wqes")
        self.lock_acquired = reg.counter("nam_lock_acquisitions_total")
        self.lock_contended = reg.counter("nam_lock_contended_total")
        self.lock_spin_round = reg.counter("nam_lock_spin_rounds_total")
        self.lock_stolen = reg.counter("nam_lock_steals_total")
        self.cache_hit = reg.counter("nam_cache_hits_total")
        self.cache_miss = reg.counter("nam_cache_misses_total")
        self._cache_revalidations = reg.counter("nam_cache_revalidations_total")
        self._cache_revalidation_misses = reg.counter(
            "nam_cache_revalidation_misses_total"
        )
        self.cache_invalidated = reg.counter("nam_cache_invalidations_total")
        self._gc_sweeps = reg.counter("nam_gc_sweeps_total")
        self._gc_leaves = reg.counter("nam_gc_leaves_scanned_total")
        self._gc_removed = reg.counter("nam_gc_entries_removed_total")
        #: Counters of the rare events (timeouts, admission verdicts),
        #: created on first use: see _counter.
        self._handles: Dict[tuple, Counter] = {}
        # Per-server time series (docs/observability.md): ``(name, server)``
        # -> ring of ``(t, value)`` points, sampled lazily on a sim-time
        # cadence from the hooks above, never event-scheduled.
        self.timeseries: Dict[Tuple[str, str], deque] = {}
        self._ts_cadence = self.config.timeseries_cadence_s
        self._ts_next = 0.0
        self._ts_last_t: Optional[float] = None
        self._ts_busy: Dict[int, float] = {}
        self._ts_ops: Dict[int, int] = {}
        self._cluster: Any = None
        # Flight recorder: always-on bounded rings + trigger-driven dumps.
        self.flight = FlightRecorder(sim, self.config.flight_ring)
        self._verb_ring = self.flight.verbs
        self._op_rings = self.flight.client_ops
        # Per-client slow-op thresholds (seconds), derived from tenant SLOs
        # by the open-loop runner when ``derive_slow_from_slo`` is set.
        # Empty by default, in which case end_op's retention decision is
        # byte-identical to the static-threshold-only build.
        self._client_slow: Dict[Any, float] = {}

    # -- critical-path stamps (consumed by repro.obs.attribution) --------------

    def stamp(self, label: str, started_at: float, finished_at: float) -> None:
        """Attribute ``[started_at, finished_at)`` of the *active* process's
        operation to segment *label*. No-op outside an operation or for a
        zero-length window — stamping never affects simulation state."""
        if finished_at <= started_at:
            return
        process = self.sim._active
        frame = process.span if process is not None else None
        if frame is not None:
            frame[0].events.append((STAMP, label, started_at, finished_at))

    def stamp_span(
        self, span: tuple, label: str, started_at: float, finished_at: float
    ) -> None:
        """Like :meth:`stamp`, but for code that holds an operation's frame
        (what ``Process.span`` and an RPC envelope carry) instead of running
        inside the op's process: memory-server workers stamping queue wait
        and CPU time onto the client's op."""
        if finished_at > started_at:
            span[0].events.append((STAMP, label, started_at, finished_at))

    # -- operation lifecycle (called by the workload runner) -------------------

    def begin_op(self, op_type: str, client_id: Optional[int] = None) -> OpSpan:
        """Open the record of one index operation, with an empty event
        log, and make it the frame of the calling process."""
        self.ops_observed += 1
        span = OpSpan(self.ops_observed, op_type, self.sim.now, client_id)
        process = self.sim._active
        if process is not None:
            process.span = (span, 0, None)
        return span

    def end_op(self, span: OpSpan, op_type: Optional[str] = None) -> None:
        """Close an operation, record its metrics, and decide whether its
        record is retained (sampling or the slow-op hook).

        ``op_type`` is the operation's final classification — the runner
        only knows it after the fact (an op that exhausts its retry budget
        comes back as an error type); it overwrites the placeholder name
        given to :meth:`begin_op`.
        """
        now = self.sim.now
        if op_type is not None:
            span.name = op_type
        if span.finished_at is None:
            span.finished_at = now
        process = self.sim._active
        if process is not None:
            process.span = None
        try:
            count, latency = self._op_handles[span.name]
        except KeyError:
            count, latency = self._op_handles[span.name] = (
                self.registry.counter("nam_ops_total", type=span.name),
                self.registry.histogram("nam_op_latency_seconds", type=span.name),
            )
        duration = now - span.started_at
        count.value += 1.0
        count.updated_at = now
        latency.buckets[bisect_left(latency.edges, duration)] += 1
        latency.count += 1
        latency.total += duration
        if duration < latency.min:
            latency.min = duration
        if duration > latency.max:
            latency.max = duration
        latency.updated_at = now
        if (span.op_id - 1) % self.config.sample_every == 0:
            self.sampled_spans.append(span)
        threshold = self.config.slow_op_threshold_s
        if self._client_slow:
            threshold = self._client_slow.get(span.client_id, threshold)
        if threshold is not None and duration > threshold:
            self.slow_spans.append(span)
        self._op_rings[span.client_id].append(span)
        if self._ts_cadence is not None:
            self.maybe_sample()

    def set_client_slow_threshold(self, client_id: Any, threshold: float) -> None:
        """Override the slow-op threshold for one client (tenant SLO-derived;
        see ``ObservabilityConfig.derive_slow_from_slo``)."""
        self._client_slow[client_id] = threshold

    # -- traversal structure (called by the tree algorithm) --------------------

    def enter_step(self, kind: str, name: str) -> None:
        """Open a step (level descent, move-right) under the executing
        process's innermost open one. No-op outside an operation."""
        process = self.sim._active
        frame = process.span if process is not None else None
        if frame is None:
            return
        root = frame[0]
        self._step_seq = step = self._step_seq + 1
        root.events.append((ENTER, step, frame[1], kind, name, self.sim.now))
        process.span = (root, step, frame)

    def exit_step(self) -> None:
        """Close the innermost step opened by :meth:`enter_step`."""
        process = self.sim._active
        frame = process.span if process is not None else None
        if frame is None or frame[2] is None:
            return
        frame[0].events.append((EXIT, frame[1], self.sim.now))
        process.span = frame[2]

    def next_step(self, kind: str, name: str) -> None:
        """The step hand-off: :meth:`exit_step` then :meth:`enter_step` at
        the same instant — the same two tuples, one call (a descent's level
        steps end where the next begins)."""
        process = self.sim._active
        frame = process.span if process is not None else None
        if frame is None or frame[2] is None:
            return
        now = self.sim.now
        self._step_seq = step = self._step_seq + 1
        frame[0].events.extend(
            ((EXIT, frame[1], now), (ENTER, step, frame[2][1], kind, name, now))
        )
        process.span = (frame[0], step, frame[2])

    # -- hot-path events (push) -------------------------------------------------

    def verb_completed(
        self,
        verb: Any,
        server_id: int,
        payload_bytes: int,
        started_at: float,
        finished_at: float,
        local: bool = False,
        batch_id: Optional[int] = None,
    ) -> None:
        """One RDMA verb finished: bump per-verb/per-server counters and
        the latency histogram, log the verb under the open step, and hand
        the tuple to the flight ring and the verb readers."""
        try:
            handles = self._verb_handles[verb, server_id]
        except KeyError:
            labels = {"verb": getattr(verb, "value", verb), "server": server_id}
            handles = self._verb_handles[verb, server_id] = (
                labels["verb"],
                self.registry.counter("nam_verbs_total", **labels),
                self.registry.counter("nam_verb_payload_bytes_total", **labels),
                self.registry.histogram("nam_verb_latency_seconds", **labels),
            )
        name, count, nbytes, latency = handles
        count.value += 1.0
        nbytes.value += payload_bytes
        count.updated_at = nbytes.updated_at = latency.updated_at = self.sim.now
        duration = finished_at - started_at
        latency.buckets[bisect_left(latency.edges, duration)] += 1
        latency.count += 1
        latency.total += duration
        if duration < latency.min:
            latency.min = duration
        if duration > latency.max:
            latency.max = duration
        process = self.sim._active
        frame = process.span if process is not None else None
        event = (
            VERB, frame[1] if frame is not None else 0, name, server_id,
            payload_bytes, started_at, finished_at, local, batch_id,
        )
        if frame is not None:
            frame[0].events.append(event)
        self._verb_ring.append(event)
        for reader in self.verb_readers:
            reader(event, frame[0] if frame is not None else None)
        if self._ts_cadence is not None:
            self.maybe_sample()

    def attempt_failed(self, verb: Any, server_id: int, retried: bool) -> None:
        """A verb/RPC attempt timed out; ``retried`` says whether another
        attempt follows (False = the retry budget is spent)."""
        labels = {"verb": getattr(verb, "value", verb), "server": server_id}
        self._counter("nam_verb_timeouts_total", **labels).inc()
        # Resolved even when unused: both series exist from the first timeout.
        retries = self._counter("nam_verb_retries_total", **labels)
        if retried:
            retries.inc()

    def rpc_served(self, server_id: int, queue_depth: int, service_s: float) -> None:
        """An RPC worker finished a handler: record queue depth at dequeue
        and end-to-end service time."""
        handles = self._rpc_handles.get(server_id)
        if handles is None:
            handles = (
                self.registry.counter("nam_rpcs_served_total", server=server_id),
                self.registry.histogram("nam_rpc_queue_depth", server=server_id),
                self.registry.histogram(
                    "nam_rpc_service_seconds", server=server_id
                ),
            )
            self._rpc_handles[server_id] = handles
        handles[0].inc()
        handles[1].observe(float(queue_depth))
        handles[2].observe(service_s)
        if self._ts_cadence is not None:
            self.maybe_sample()

    def cache_revalidated(self, fresh: bool) -> None:
        """A cached image's version word was re-read (1-verb READ);
        ``fresh`` says whether the image survived."""
        self._cache_revalidations.inc()
        if not fresh:
            self._cache_revalidation_misses.inc()

    def gc_sweep(self, leaves_seen: int, entries_removed: int) -> None:
        self._gc_sweeps.inc()
        self._gc_leaves.inc(leaves_seen)
        self._gc_removed.inc(entries_removed)

    # -- overload stack (push; docs/overload.md) ----------------------------------

    def _counter(self, name: str, **labels: Any) -> Counter:
        """A labelled counter for the events below, which are too rare to
        earn a pre-resolved tuple: the registry sorts labels once per set."""
        key = (name, *labels.values())
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = self.registry.counter(name, **labels)
        return handle

    def admission_accepted(self, server_id: int) -> None:
        """Admission control let an RPC onto a worker-pool queue."""
        self._counter("nam_admission_accepted_total", server=server_id).inc()
        self.flight.record_admission(server_id, "accepted")
        if self._ts_cadence is not None:
            self.maybe_sample()

    def admission_rejected(self, server_id: int, reason: str) -> None:
        """Admission control bounced an RPC (``rate-limit``/``queue-full``)."""
        self._counter(
            "nam_admission_rejected_total", server=server_id, reason=reason
        ).inc()
        self.flight.record_admission(server_id, reason)
        if self._ts_cadence is not None:
            self.maybe_sample()

    # -- time series (lazy sampler) ----------------------------------------------

    def maybe_sample(self) -> None:
        """Record one point per per-server series if a cadence boundary has
        passed since the last sample. Called from hot-path hooks that fire
        anyway (verbs, RPC completions, op ends, admission verdicts) — one
        float compare when no sample is due, never a scheduled event."""
        cadence = self._ts_cadence
        if cadence is None:
            return
        now = self.sim.now
        if now < self._ts_next:
            return
        self._sample_all(now)
        self._ts_next = (math.floor(now / cadence) + 1.0) * cadence

    def _record(self, name: str, server: int, value: float) -> None:
        key = (name, str(server))
        points = self.timeseries.get(key)
        if points is None:
            points = self.timeseries[key] = deque(maxlen=self.config.timeseries_points)
        points.append((self.sim.now, value))

    def _sample_all(self, now: float) -> None:
        cluster = self._cluster
        if cluster is None:
            return
        record = self._record
        elapsed = None
        if self._ts_last_t is not None and now > self._ts_last_t:
            elapsed = now - self._ts_last_t
        for server in cluster.memory_servers:
            sid = server.server_id
            port = server.port
            # busy_until is clamped to now: the backlogs are never negative.
            record("nic_tx_backlog_seconds", sid, port.tx.busy_until - now)
            record("nic_rx_backlog_seconds", sid, port.rx.busy_until - now)
            record("rpc_queue_len", sid, float(server.rpc_backlog))
            busy = server._busy_time
            if elapsed is not None:
                prev_busy = self._ts_busy.get(sid, busy)
                cores = server.config.cpu.cores_per_server
                occupancy = (busy - prev_busy) / (elapsed * cores)
                record("worker_occupancy", sid, min(1.0, max(0.0, occupancy)))
            self._ts_busy[sid] = busy
            ops = sum(server.stats.ops.values())
            prev_ops = self._ts_ops.get(sid)
            if prev_ops is not None:
                record("server_heat_ops", sid, float(ops - prev_ops))
            self._ts_ops[sid] = ops
        self._ts_last_t = now

    # -- pull collector --------------------------------------------------------

    def attach_cluster(self, cluster: Any) -> None:
        """Point the time-series sampler and the snapshot-time pull
        collector at *cluster*."""
        self._cluster = cluster

    def _collect(self) -> None:
        """Mirror the cumulative counters the simulation keeps anyway (NIC
        ports, verb stats, fault injector, replication manager, kernel)
        into the registry — run at every snapshot, free on the hot path."""
        cluster = self._cluster
        if cluster is None:
            return
        reg = self.registry
        for server in cluster.memory_servers:
            sid = server.server_id
            port = server.port
            reg.counter("nic_doorbells_total", server=sid).set_total(port.doorbells)
            reg.counter("nic_wqes_posted_total", server=sid).set_total(port.wqes_posted)
            tx, rx = port.traffic()
            reg.counter("nic_tx_bytes_total", server=sid).set_total(tx)
            reg.counter("nic_rx_bytes_total", server=sid).set_total(rx)
            reg.gauge("nam_rpc_queue_length", server=sid).set(server.rpc_backlog)
            reg.counter("nam_rpcs_handled_total", server=sid).set_total(
                server.rpcs_handled
            )
            for verb, count in server.stats.ops.items():
                reg.counter(
                    "nam_server_verbs_total", server=sid, verb=verb.value
                ).set_total(count)
            for verb, nbytes in server.stats.bytes.items():
                reg.counter(
                    "nam_server_verb_bytes_total", server=sid, verb=verb.value
                ).set_total(nbytes)
        for compute in cluster.compute_servers:
            port = compute.port
            cid = compute.server_id
            reg.counter("nic_doorbells_total", compute=cid).set_total(port.doorbells)
            reg.counter("nic_wqes_posted_total", compute=cid).set_total(port.wqes_posted)
        if cluster.fault_injector is not None:
            for event, count in cluster.fault_injector.stats.items():
                reg.counter("nam_fault_events_total", event=event).set_total(count)
        if cluster.replication is not None:
            for event, count in cluster.replication.stats.items():
                reg.counter("nam_replication_events_total", event=event).set_total(count)
        reg.gauge("sim_events_scheduled").set(cluster.sim.events_scheduled)
        reg.gauge("sim_time_seconds").set(cluster.sim.now)

    # -- snapshot ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Run the pull collector, then render everything JSON-ready."""
        self._collect()
        base = self.registry.snapshot()
        return {
            "sim_time": base["sim_time"],
            "ops_observed": self.ops_observed,
            "config": {
                "sample_every": self.config.sample_every,
                "slow_op_threshold_s": self.config.slow_op_threshold_s,
                "timeseries_cadence_s": self.config.timeseries_cadence_s,
                "derive_slow_from_slo": self.config.derive_slow_from_slo,
            },
            "metrics": base["metrics"],
            "sampled_spans": [span.as_dict() for span in self.sampled_spans],
            "slow_spans": [span.as_dict() for span in self.slow_spans],
            "timeseries": [
                {
                    "name": name,
                    "labels": {"server": server},
                    "points": [[t, value] for t, value in points],
                }
                for (name, server), points in sorted(self.timeseries.items())
            ],
            "flight": self.flight.snapshot(),
        }
