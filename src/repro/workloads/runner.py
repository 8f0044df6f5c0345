"""Workload execution: closed-loop clients (Section 6.1's measurement
setup) and open-loop arrivals.

Clients mirror the paper's: each client thread runs a closed loop (it
waits for one operation to finish before issuing the next) drawing
operations from a :class:`~repro.workloads.ycsb.WorkloadSpec`. Clients are
grouped onto compute servers (``ClusterConfig.clients_per_compute_server``,
40 by default, like the paper's testbed); each client owns one index
session.

:meth:`WorkloadRunner.run_open` is the second arrival discipline:
operations arrive on each tenant's schedule whether or not earlier ones
finished (:mod:`repro.workloads.openloop`, docs/overload.md). Both
disciplines share one run state, one warm-up/measure controller, one
spawn site and one fold of records into the :class:`RunResult`.

A run has a warm-up phase and a measurement window. Throughput counts
operations *completing* inside the window; network/CPU counters are
snapshotted at the window edges.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionRejectedError, ConfigurationError, TimeoutError_
from repro.index.base import DistributedIndex
from repro.nam.cluster import Cluster
from repro.workloads.datagen import Dataset
from repro.workloads.distributions import make_chooser
from repro.workloads.metrics import OpType, RunResult, TenantOutcome
from repro.workloads.openloop import Tenant, TenantSpec
from repro.workloads.ycsb import WorkloadSpec

__all__ = ["WorkloadRunner", "OpDrawer"]


class _Run:
    """One run's shared state and its spawn site: the controller's stop
    flag and window, the per-operation records, the append-insert counter,
    and every session and process the run starts."""

    def __init__(self, cluster: Cluster, index: DistributedIndex) -> None:
        self.cluster = cluster
        self.index = index
        self.stop = False
        self.measure_from: Optional[float] = None
        self.window_end: Optional[float] = None
        # (op_type, start, end) triples, appended by clients.
        self.records: List[Tuple[str, float, float]] = []
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
                    latencies.setdefault(op_type, []).append(latency)
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


class OpDrawer:
    """Draws one client's operation stream from a :class:`WorkloadSpec`.

    All randomness (the op-mix draw, key choices, uniform insert keys) is
    consumed at :meth:`next_op` time, in a fixed order, so the closed and
    open loops produce identical per-client draw sequences for identical
    seeds. ``next_op`` returns ``(op_type, op)`` where *op* is a
    ``session -> generator`` thunk; executing it later (even concurrently
    with other in-flight ops) touches no more RNG state.

    *append_state* is any object with an ``append_seq`` attribute shared
    by every client of the run — the YCSB-style monotone key counter for
    ``insert_pattern="append"`` workloads.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        dataset: Dataset,
        rng: np.random.Generator,
        append_state: Any,
        client_id: int,
    ) -> None:
        self.spec = spec
        self.dataset = dataset
        self.rng = rng
        self.append_state = append_state
        self.client_id = client_id
        self.chooser = make_chooser(
            spec.distribution, dataset.num_keys, rng, spec.zipf_theta
        )
        self.range_span = max(1, int(spec.selectivity * dataset.key_space))
        self.insert_seq = 0

    def next_op(self) -> Tuple[str, Any]:
        spec = self.spec
        dataset = self.dataset
        rng = self.rng
        draw = rng.random()
        if draw < spec.point_fraction:
            key = dataset.key_at(self.chooser.next_index())
            return OpType.POINT, lambda session: session.lookup(key)
        if draw < spec.point_fraction + spec.range_fraction:
            low = dataset.key_at(self.chooser.next_index())
            high = low + self.range_span
            return OpType.RANGE, lambda session: session.range_scan(low, high)
        if draw < (spec.point_fraction + spec.range_fraction
                   + spec.delete_fraction):
            key = dataset.key_at(self.chooser.next_index())
            return OpType.DELETE, lambda session: session.delete(key)
        if spec.insert_pattern == "append":
            key = dataset.key_space + self.append_state.append_seq
            self.append_state.append_seq += 1
        else:
            key = int(rng.integers(0, dataset.key_space))
        value = self.client_id * 1_000_000 + self.insert_seq
        self.insert_seq += 1
        return OpType.INSERT, lambda session: session.insert(key, value)


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

        With ``keep_records=True`` the result also carries the raw
        ``(op_type, start, end)`` triples of *every* operation (including
        warm-up and drain) in :attr:`RunResult.raw_records` — availability
        experiments slice them into time buckets around a crash.

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
        run = _Run(self.cluster, index)
        client_id = 0
        for client_spec, count in populations:
            for session in run.sessions(count):
                rng = np.random.default_rng((seed, client_id))
                run.spawn(
                    session,
                    self._client_loop(
                        client_id, session, client_spec, rng, run,
                        max_ops=ops_per_client,
                    ),
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
        if keep_records:
            result.raw_records = list(run.records)
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
        run = _Run(self.cluster, index)
        start_time = self.cluster.now
        running = []
        for tenant_index, spec in enumerate(tenants):
            # Streams 1 (arrival clock) and 2 (op draws) per tenant, both
            # derived from the run seed — identical seeds replay identical
            # arrival timestamps and op sequences.
            drawer = OpDrawer(
                spec.workload, self.dataset,
                np.random.default_rng((seed, 2, tenant_index)), run, tenant_index,
            )
            tenant = Tenant(spec, tenant_index, run, drawer, run.sessions(spec.sessions))
            running.append(tenant)
            self.cluster.spawn(
                tenant.arrivals(np.random.default_rng((seed, 1, tenant_index)), start_time)
            )
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

    def _client_loop(
        self,
        client_id: int,
        session,
        spec: WorkloadSpec,
        rng: np.random.Generator,
        state: _Run,
        max_ops: Optional[int] = None,
    ) -> Generator[Any, Any, None]:
        drawer = OpDrawer(spec, self.dataset, rng, state, client_id)
        sim = self.cluster.sim
        obs = self.cluster.obs
        remaining = max_ops
        while not state.stop:
            if remaining is not None:
                if remaining == 0:
                    return
                remaining -= 1
            op_kind, op = drawer.next_op()
            start = sim.now
            # The op's final classification is only known after the fact
            # (it may come back as a typed error), so the span is opened
            # under a placeholder and renamed at end_op.
            span = obs.begin_op("op", client_id) if obs is not None else None
            try:
                yield from op(session)
                op_type = op_kind
            except (TimeoutError_, AdmissionRejectedError) as exc:
                # Under injected faults an operation may exhaust its retry
                # budget; under admission control the server may bounce it.
                # The client records the typed failure and moves on — the
                # closed loop survives, mirroring an application that
                # handles the error and continues.
                op_type = f"{OpType.ERROR}:{type(exc).__name__}"
            if span is not None:
                obs.end_op(span, op_type)
                if op_type != op_kind:
                    obs.flight.dump("errored-op", span)
            state.records.append((op_type, start, sim.now))
