"""Closed-loop workload execution (Section 6.1's measurement setup).

Clients mirror the paper's: each client thread runs a closed loop (it
waits for one operation to finish before issuing the next) drawing
operations from a :class:`~repro.workloads.ycsb.WorkloadSpec`. Clients are
grouped onto compute servers (40 per server by default, like the paper's
testbed); each client owns one index session.

A run has a warm-up phase and a measurement window. Throughput counts
operations *completing* inside the window; network/CPU counters are
snapshotted at the window edges.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionRejectedError, ConfigurationError, TimeoutError_
from repro.index.base import DistributedIndex
from repro.nam.cluster import Cluster
from repro.workloads.datagen import Dataset
from repro.workloads.distributions import make_chooser
from repro.workloads.metrics import OpType, RunResult
from repro.workloads.ycsb import WorkloadSpec

__all__ = ["WorkloadRunner", "OpDrawer"]


class _ClientState:
    """Shared flags and per-op records of one run."""

    def __init__(self) -> None:
        self.stop = False
        self.measure_from: Optional[float] = None
        # (op_type, start, end) triples, appended by clients.
        self.records: List[Tuple[str, float, float]] = []
        # Shared sequence for "append" inserts (YCSB-style key counter).
        self.append_seq = 0


class OpDrawer:
    """Draws one client's operation stream from a :class:`WorkloadSpec`.

    All randomness (the op-mix draw, key choices, uniform insert keys) is
    consumed at :meth:`next_op` time, in a fixed order, so the closed-loop
    and open-loop runners produce identical per-client draw sequences for
    identical seeds. ``next_op`` returns ``(op_type, op)`` where *op* is a
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

    def __init__(
        self,
        cluster: Cluster,
        dataset: Dataset,
        clients_per_compute_server: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.dataset = dataset
        self.clients_per_cs = (
            clients_per_compute_server
            if clients_per_compute_server is not None
            else cluster.config.clients_per_compute_server
        )
        if self.clients_per_cs < 1:
            raise ConfigurationError("clients_per_compute_server must be >= 1")

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
        total_clients = sum(count for _spec, count in populations)
        if total_clients < 1:
            raise ConfigurationError("need at least one client")
        state = _ClientState()
        client_procs = []
        compute_server = None
        client_id = 0
        for client_spec, count in populations:
            for _ in range(count):
                if client_id % self.clients_per_cs == 0:
                    compute_server = self.cluster.new_compute_server()
                session = index.session(compute_server)
                rng = np.random.default_rng((seed, client_id))
                proc = self.cluster.spawn(
                    self._client_loop(
                        client_id, session, client_spec, rng, state,
                        max_ops=ops_per_client,
                    )
                )
                client_procs.append(proc)
                if self.cluster.fault_injector is not None:
                    self.cluster.fault_injector.register_client(
                        compute_server.server_id, proc
                    )
                client_id += 1
        workload_name = "+".join(
            spec_.name for spec_, _count in populations
        )
        num_clients = total_clients

        if ops_per_client is not None:
            # Fixed-work mode: the window is the whole run, edge to edge.
            baseline = self.cluster.reset_measurement()
            state.measure_from = self.cluster.now
            self.cluster.sim.run_until_complete(
                self.cluster.sim.all_of(client_procs)
            )
            counters = self.cluster.measurement_delta(baseline)
            window_s = self.cluster.now - state.measure_from
            window_end = self.cluster.now
        else:
            controller = self.cluster.spawn(
                self._controller(state, warmup_s, measure_s)
            )
            counters = self.cluster.sim.run_until_complete(controller)
            self.cluster.sim.run_until_complete(
                self.cluster.sim.all_of(client_procs)
            )
            window_s = measure_s
            window_end = state.measure_from + measure_s
        result = RunResult(
            design=index.design,
            workload=workload_name,
            num_clients=num_clients,
            window_s=window_s,
            network=counters["network"],
            cpu_utilization=counters["cpu"],
        )
        for op_type, start, end in state.records:
            if state.measure_from <= end <= window_end:
                if op_type.startswith(OpType.ERROR):
                    name = op_type.partition(":")[2]
                    result.errors[name] = result.errors.get(name, 0) + 1
                else:
                    result.op_counts[op_type] = result.op_counts.get(op_type, 0) + 1
                    result.latencies.setdefault(op_type, []).append(end - start)
        if keep_records:
            result.raw_records = list(state.records)
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

    # ------------------------------------------------------------------ #

    def _controller(
        self, state: _ClientState, warmup_s: float, measure_s: float
    ) -> Generator[Any, Any, dict]:
        yield warmup_s
        baseline = self.cluster.reset_measurement()
        state.measure_from = self.cluster.now
        yield measure_s
        state.stop = True
        # Snapshot counters exactly at the window edge, before the clients'
        # in-flight operations drain.
        return self.cluster.measurement_delta(baseline)

    def _client_loop(
        self,
        client_id: int,
        session,
        spec: WorkloadSpec,
        rng: np.random.Generator,
        state: _ClientState,
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
                if op_type.startswith(OpType.ERROR):
                    obs.flight_dump("errored-op", span)
            state.records.append((op_type, start, sim.now))
