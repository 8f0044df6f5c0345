"""Workload execution: closed-loop clients (Section 6.1's measurement
setup) and open-loop arrivals.

Clients mirror the paper's: each client runs a closed loop (it waits for
one operation to finish before issuing the next) over a stream of
``(session method, args)`` operations, drawn by :func:`draw_ops` or issued
by a :class:`~repro.workloads.history.Scenario`, and may keep each as an
:class:`~repro.workloads.metrics.Op`. Clients are grouped onto compute
servers (``ClusterConfig.clients_per_compute_server``, 40 by default, like
the paper's testbed); each client owns one index session.

:meth:`WorkloadRunner.run_open` is the second arrival discipline:
operations arrive on each tenant's schedule whether or not earlier ones
finished (:mod:`repro.workloads.openloop`, docs/overload.md). Both
disciplines share one operation stream, one run state, one warm-up/measure
controller, one spawn site and one fold of records into the
:class:`RunResult`.

A run has a warm-up phase and a measurement window. Throughput counts
operations *completing* inside the window; network/CPU counters are
snapshotted at the window edges.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Any, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionRejectedError, ConfigurationError, TimeoutError_
from repro.index.base import DistributedIndex
from repro.nam.cluster import Cluster
from repro.workloads.datagen import Dataset
from repro.workloads.distributions import make_chooser
from repro.workloads.metrics import OP_TYPES, Op, OpType, RunResult, TenantOutcome
from repro.workloads.openloop import Tenant, TenantSpec
from repro.workloads.ycsb import WorkloadSpec

__all__ = ["WorkloadRunner", "draw_ops"]


class _Run:
    """One run's shared state, its spawn site and its closed loop: the
    controller's stop flag and window, the per-operation records, the
    kept :class:`Op` history, the append-insert counter, and every session
    and process the run starts."""

    def __init__(
        self, cluster: Cluster, index: DistributedIndex, ops: Optional[List[Op]] = None
    ) -> None:
        self.cluster = cluster
        self.index = index
        self.stop = False
        # The measurement window, empty until the run opens it.
        self.measure_from = math.inf
        self.window_end = -math.inf
        # (op_type, start, end) triples, appended by clients.
        self.records: List[Tuple[str, float, float]] = []
        # The closed loop's operations in issue order, when the run keeps them.
        self.ops = ops
        # Shared sequence for "append" inserts (YCSB-style key counter).
        self.append_seq = 0
        # Every process the spawn site started; the run drains them.
        self.procs: List[Any] = []
        self._opened = 0
        self._compute_server: Any = None

    def sessions(self, count: int) -> List[Any]:
        """Open *count* index sessions; every
        ``ClusterConfig.clients_per_compute_server``-th session of the run
        starts on a new compute server."""
        opened = []
        for _ in range(count):
            if self._opened % self.cluster.config.clients_per_compute_server == 0:
                self._compute_server = self.cluster.new_compute_server()
            self._opened += 1
            opened.append(self.index.session(self._compute_server))
        return opened

    def spawn(self, session: Any, generator: Generator[Any, Any, None]) -> None:
        """Start *generator* as a process on *session*'s compute server: a
        crash of that server kills it, at once if the server is already
        down."""
        proc = self.cluster.spawn(generator)
        injector = self.cluster.fault_injector
        if injector is not None:
            injector.register_client(session.compute_server.server_id, proc)
        self.procs.append(proc)

    def client_loop(
        self, client: int, session: Any, stream: Iterable[Tuple[str, Tuple[Any, ...]]]
    ) -> Generator[Any, Any, None]:
        """Issue *stream*'s ``(method, args)`` operations on *session*, each
        after the last one finished, until the stream ends or the run stops."""
        sim = self.cluster.sim
        obs = self.cluster.obs
        op = None
        # Each method bound once per client, with the op type it counts as.
        calls = {method: (getattr(session, method), kind) for method, kind in OP_TYPES.items()}
        for method, args in stream:
            if self.stop:
                return
            call, op_kind = calls[method]
            start = sim.now
            if self.ops is not None:
                op = Op(client, method, args, start)
                self.ops.append(op)
            # The span is opened under a placeholder and named at end_op:
            # the op may come back as a typed error.
            span = obs.begin_op("op", client) if obs is not None else None
            try:
                result = yield from call(*args)
                op_type = op_kind
            except (TimeoutError_, AdmissionRejectedError) as exc:
                # A fault may exhaust the op's retry budget, or admission
                # control bounce it: the client records the typed failure and
                # goes on, as an application that handles the error would.
                result = exc
                op_type = f"{OpType.ERROR}:{type(exc).__name__}"
            if span is not None:
                obs.end_op(span, op_type)
                if op_type != op_kind:
                    obs.flight.dump("errored-op", span)
            end = sim.now
            self.records.append((op_type, start, end))
            if op is not None:
                op.result = result
                op.responded_at = end

    def count_in_window(self, times: Iterable[float]) -> int:
        """How many of *times* fall inside the measurement window."""
        return sum(1 for t in times if self.measure_from <= t <= self.window_end)

    def fold(
        self,
        result: RunResult,
        records: Iterable[Tuple[str, float, float]],
        outcome: Optional[TenantOutcome] = None,
    ) -> None:
        """Add the *records* that end inside the window to *result* — a
        success's latency and op count, a failure's error count — and, for
        an open-loop tenant, to its *outcome*."""
        latencies = result.latencies
        errors = result.errors
        for op_type, start, end in records:
            if self.measure_from <= end <= self.window_end:
                if op_type in OpType.ALL:
                    latency = end - start
                    try:
                        latencies[op_type].append(latency)
                    except KeyError:  # the op type's first sample
                        latencies[op_type] = [latency]
                    if outcome is not None:
                        outcome.latencies.append(latency)
                else:
                    name = op_type.partition(":")[2]
                    errors[name] = errors.get(name, 0) + 1
                    if outcome is not None:
                        outcome.errored += 1
        result.op_counts.update(
            (op_type, len(samples)) for op_type, samples in latencies.items()
        )


def draw_ops(
    spec: WorkloadSpec,
    dataset: Dataset,
    rng: np.random.Generator,
    append_state: Any,
    client_id: int,
) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """Yield one client's ``(session method, args)`` operations drawn from
    *spec*. Every random draw (op mix, key, uniform insert key) is made as
    its operation is drawn, in a fixed order, so both loops draw identical
    per-client sequences for identical seeds. *append_state*'s
    ``append_seq`` is the run's shared YCSB-style key counter for
    ``insert_pattern="append"``."""
    chooser = make_chooser(spec.distribution, dataset.num_keys, rng, spec.zipf_theta)
    range_span = max(1, int(spec.selectivity * dataset.key_space))
    insert_seq = 0
    while True:
        draw = rng.random()
        if draw < spec.point_fraction:
            yield "lookup", (dataset.key_at(chooser.next_index()),)
        elif draw < spec.point_fraction + spec.range_fraction:
            low = dataset.key_at(chooser.next_index())
            yield "range_scan", (low, low + range_span)
        elif draw < spec.point_fraction + spec.range_fraction + spec.delete_fraction:
            yield "delete", (dataset.key_at(chooser.next_index()),)
        else:
            if spec.insert_pattern == "append":
                key = dataset.key_space + append_state.append_seq
                append_state.append_seq += 1
            else:
                key = int(rng.integers(0, dataset.key_space))
            yield "insert", (key, client_id * 1_000_000 + insert_seq)
            insert_seq += 1


def _check_window(warmup_s: float, measure_s: float) -> None:
    """Refuse a timed window that cannot be measured."""
    if not measure_s > 0:
        raise ConfigurationError(f"measure_s must be > 0, got {measure_s}")
    if not warmup_s >= 0:
        raise ConfigurationError(f"warmup_s must be >= 0, got {warmup_s}")


class WorkloadRunner:
    """Drives one workload against one index on a cluster."""

    def __init__(self, cluster: Cluster, dataset: Dataset) -> None:
        self.cluster = cluster
        self.dataset = dataset

    # ------------------------------------------------------------------ #

    def run(
        self,
        index: DistributedIndex,
        spec: Optional[WorkloadSpec] = None,
        num_clients: Optional[int] = None,
        warmup_s: float = 0.002,
        measure_s: float = 0.02,
        seed: int = 1,
        populations: Optional[Sequence[Tuple[WorkloadSpec, int]]] = None,
        keep_records: bool = False,
        ops_per_client: Optional[int] = None,
    ) -> RunResult:
        """Execute a workload with closed-loop clients.

        Either pass one *spec* with *num_clients*, or *populations* — a
        list of ``(spec, count)`` pairs for heterogeneous client mixes
        (e.g. dedicated reader and writer populations).

        Returns a :class:`RunResult` for the measurement window. The same
        cluster can be reused across runs (counters are windowed), but each
        run adds the compute servers it needs.

        With ``keep_records=True`` the result also carries *every*
        operation (including warm-up and drain) as an :class:`Op`, in issue
        order, in :attr:`RunResult.raw_records` — availability experiments
        slice them into time buckets around a crash.

        ``ops_per_client`` switches from the timed window to a *fixed
        work* run: every client executes exactly that many operations and
        the measurement window spans the whole run (``warmup_s`` /
        ``measure_s`` are ignored). Deterministic total work makes runs
        comparable by wall clock — the engine benchmark's mode.
        """
        if populations is None:
            if spec is None or num_clients is None:
                raise ConfigurationError(
                    "pass either (spec, num_clients) or populations"
                )
            populations = [(spec, num_clients)]
        num_clients = sum(count for _spec, count in populations)
        if num_clients < 1:
            raise ConfigurationError("need at least one client")
        if ops_per_client is None:
            _check_window(warmup_s, measure_s)
        elif ops_per_client < 1:
            raise ConfigurationError("ops_per_client must be >= 1")
        run = _Run(self.cluster, index, [] if keep_records else None)
        client_id = 0
        for client_spec, count in populations:
            for session in run.sessions(count):
                rng = np.random.default_rng((seed, client_id))
                stream = draw_ops(client_spec, self.dataset, rng, run, client_id)
                run.spawn(
                    session, run.client_loop(client_id, session, islice(stream, ops_per_client))
                )
                client_id += 1
        workload = "+".join(spec_.name for spec_, _count in populations)

        if ops_per_client is not None:
            # Fixed-work mode: the window is the whole run, edge to edge.
            baseline = self.cluster.reset_measurement()
            run.measure_from = self.cluster.now
            self.cluster.sim.run_until_complete(self.cluster.sim.all_of(run.procs))
            counters = self.cluster.measurement_delta(baseline)
            run.window_end = self.cluster.now
            window_s = run.window_end - run.measure_from
        else:
            counters = self._measure(run, warmup_s, measure_s)
            window_s = measure_s
        result = self._result(run, workload, num_clients, window_s, counters)
        run.fold(result, run.records)
        if run.ops is not None:
            result.raw_records = run.ops
        return self._observe(result)

    def run_open(
        self,
        index: DistributedIndex,
        tenants: Sequence[TenantSpec],
        warmup_s: float = 0.002,
        measure_s: float = 0.02,
        seed: int = 1,
    ) -> RunResult:
        """Run every tenant's open-loop arrivals for ``warmup_s +
        measure_s``, then let the operations in flight finish.

        Offered load is decoupled from completed load: every arrival is an
        independent operation process (round-robin over the tenant's
        ``sessions``), so a saturated server grows queues — or, with
        admission control, bounces requests — instead of slowing the
        generator down. Op counts, latencies and errors cover operations
        *completing* inside the window, as in :meth:`run`; the result adds
        ``offered_ops``/``rejected_ops`` and one
        :class:`TenantOutcome` per tenant in :attr:`RunResult.tenants`.
        Operations the servers bounce count as rejected, not as errors.
        """
        if not tenants:
            raise ConfigurationError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names: {names}")
        _check_window(warmup_s, measure_s)
        run = _Run(self.cluster, index)
        running = []
        for tenant_index, spec in enumerate(tenants):
            # Streams 1 (arrival clock) and 2 (op draws) per tenant, both
            # derived from the run seed — identical seeds replay identical
            # arrival timestamps and op sequences.
            stream = draw_ops(
                spec.workload, self.dataset,
                np.random.default_rng((seed, 2, tenant_index)), run, tenant_index,
            )
            tenant = Tenant(spec, tenant_index, run, stream, run.sessions(spec.sessions))
            running.append(tenant)
            self.cluster.spawn(tenant.arrivals(np.random.default_rng((seed, 1, tenant_index))))
        counters = self._measure(run, warmup_s, measure_s)
        result = self._result(
            run,
            "+".join(f"{spec.name}:{spec.workload.name}" for spec in tenants),
            sum(spec.sessions for spec in tenants),
            measure_s,
            counters,
        )
        for tenant in running:
            tenant.fold(result)
        return self._observe(result)

    # ------------------------------------------------------------------ #

    def _controller(
        self, run: _Run, warmup_s: float, measure_s: float
    ) -> Generator[Any, Any, dict]:
        yield warmup_s
        baseline = self.cluster.reset_measurement()
        run.measure_from = self.cluster.now
        run.window_end = run.measure_from + measure_s
        yield measure_s
        run.stop = True
        # Snapshot counters exactly at the window edge, before the clients'
        # in-flight operations drain.
        return self.cluster.measurement_delta(baseline)

    def _measure(self, run: _Run, warmup_s: float, measure_s: float) -> dict:
        """Warm up, measure, stop, and drain every process the run spawned;
        returns the window's counters."""
        sim = self.cluster.sim
        counters = sim.run_until_complete(
            self.cluster.spawn(self._controller(run, warmup_s, measure_s))
        )
        if run.procs:
            sim.run_until_complete(sim.all_of(run.procs))
        return counters

    def _result(
        self, run: _Run, workload: str, num_clients: int, window_s: float, counters: dict
    ) -> RunResult:
        return RunResult(
            design=run.index.design,
            workload=workload,
            num_clients=num_clients,
            window_s=window_s,
            network=counters["network"],
            cpu_utilization=counters["cpu"],
        )

    def _observe(self, result: RunResult) -> RunResult:
        """Attach the observability snapshot and the verb retry count."""
        obs = self.cluster.obs
        if obs is not None:
            snap = obs.snapshot()
            result.observability = snap
            result.retries = int(
                sum(
                    metric["value"]
                    for metric in snap["metrics"]
                    if metric["name"] == "nam_verb_retries_total"
                )
            )
        return result
