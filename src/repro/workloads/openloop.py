"""Open-loop, multi-tenant workload generation (docs/overload.md).

The closed-loop :class:`~repro.workloads.runner.WorkloadRunner` mirrors
the paper's measurement rig: each client waits for one operation before
issuing the next, so offered load can never exceed completed load and the
system can never be pushed past saturation. Real traffic is not so
polite. This module generates **open-loop** arrivals — operations arrive
on a schedule that does not care whether earlier ones finished — which is
the only way to observe queueing collapse, admission control, and
graceful degradation.

Pieces:

* :class:`ArrivalProcess` — a time-varying arrival-rate curve (Poisson
  steady state, a multiplicative burst window for flash crowds, an
  optional diurnal sinusoid). Sampled by Poisson thinning from a seeded
  generator, so identical seeds give identical arrival timestamps.
* :class:`TenantSpec` — one tenant: a name (stamped on every RPC envelope
  for server-side admission), a YCSB op mix, an arrival process, an
  optional p99 SLO target, and an optional client-side
  :class:`~repro.workloads.degradation.DegradationConfig`.
* :class:`OpenLoopRunner` — drives several tenants against one index and
  returns a :class:`~repro.workloads.metrics.RunResult` with full
  offered/accepted/rejected/shed accounting and per-tenant
  :class:`~repro.workloads.metrics.TenantOutcome` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionRejectedError, ConfigurationError, TimeoutError_
from repro.index.base import DistributedIndex
from repro.nam.cluster import Cluster
from repro.workloads.datagen import Dataset
from repro.workloads.degradation import CircuitBreaker, DegradationConfig, RetryBudget
from repro.workloads.metrics import OpType, RunResult, TenantOutcome
from repro.workloads.runner import OpDrawer
from repro.workloads.ycsb import WorkloadSpec

__all__ = ["ArrivalProcess", "TenantSpec", "OpenLoopRunner"]


@dataclass(frozen=True)
class ArrivalProcess:
    """A non-homogeneous Poisson arrival-rate curve, relative to run start.

    The instantaneous rate at time *t* (seconds since the run began) is::

        rate_ops_per_s
          * (burst_multiplier   if t in [burst_start_s, burst_start_s
                                         + burst_duration_s) else 1)
          * (1 + diurnal_amplitude * sin(2 * pi * t / diurnal_period_s))

    A flash crowd is a large ``burst_multiplier`` over a short window; a
    diurnal curve is a small amplitude over a long period. Arrivals are
    sampled by thinning against :meth:`peak_rate`, the standard technique
    for non-homogeneous Poisson processes.
    """

    rate_ops_per_s: float
    burst_multiplier: float = 1.0
    burst_start_s: float = 0.0
    burst_duration_s: float = 0.0
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_ops_per_s <= 0:
            raise ConfigurationError("rate_ops_per_s must be > 0")
        if self.burst_multiplier < 1.0:
            raise ConfigurationError("burst_multiplier must be >= 1.0")
        if self.burst_duration_s < 0:
            raise ConfigurationError("burst_duration_s must be >= 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_amplitude > 0.0 and self.diurnal_period_s <= 0:
            raise ConfigurationError(
                "diurnal_period_s must be > 0 when diurnal_amplitude is set"
            )

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate *t* seconds into the run."""
        rate = self.rate_ops_per_s
        if (
            self.burst_duration_s > 0
            and self.burst_start_s <= t < self.burst_start_s + self.burst_duration_s
        ):
            rate *= self.burst_multiplier
        if self.diurnal_amplitude > 0.0:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period_s
            )
        return rate

    @property
    def peak_rate(self) -> float:
        """Upper bound on :meth:`rate_at` — the thinning envelope."""
        rate = self.rate_ops_per_s
        if self.burst_duration_s > 0:
            rate *= self.burst_multiplier
        return rate * (1.0 + self.diurnal_amplitude)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant open-loop run."""

    name: str
    workload: WorkloadSpec
    arrivals: ArrivalProcess
    #: p99 latency target (seconds); None = no SLO contract.
    slo_p99_s: Optional[float] = None
    #: Client-side degradation (retry budget + circuit breaker); None
    #: disables both — every arrival is issued, rejections never retried.
    degradation: Optional[DegradationConfig] = None
    #: Application-level retries allowed per rejected operation (each one
    #: also needs a retry-budget token when degradation is configured).
    max_op_retries: int = 1
    #: Backoff before an application-level retry, scaled by attempt number.
    retry_backoff_s: float = 100e-6
    #: Index sessions (connection handles) the tenant's arrivals rotate
    #: over. Open-loop ops from one tenant may overlap arbitrarily; the
    #: session count only bounds connection-level state, not concurrency.
    sessions: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.slo_p99_s is not None and self.slo_p99_s <= 0:
            raise ConfigurationError("slo_p99_s must be > 0 (or None)")
        if self.max_op_retries < 0:
            raise ConfigurationError("max_op_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if self.sessions < 1:
            raise ConfigurationError("sessions must be >= 1")


class _TenantState:
    """Mutable run state of one tenant (shared by its arrival process and
    every in-flight operation)."""

    def __init__(self, spec: TenantSpec, index: int, now_fn, on_transition) -> None:
        self.spec = spec
        self.index = index
        # (kind, op_type, start, end) event records; kind is one of
        # "ok" / "rejected" / "shed" / "error:<Name>".
        self.events: List[Tuple[str, str, float, float]] = []
        self.offered_times: List[float] = []
        self.append_seq = 0  # OpDrawer's shared append-insert counter
        if spec.degradation is not None:
            self.budget: Optional[RetryBudget] = RetryBudget(spec.degradation)
            self.breaker: Optional[CircuitBreaker] = CircuitBreaker(
                spec.degradation, now_fn, on_transition
            )
        else:
            self.budget = None
            self.breaker = None


class OpenLoopRunner:
    """Drives multi-tenant open-loop arrivals against one index.

    Offered load is decoupled from completed load: every arrival spawns
    an independent operation process (round-robin over the tenant's
    session pool), so a saturated server grows queues — or, with
    admission control, bounces requests — instead of silently slowing the
    generator down.
    """

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
        tenants: Sequence[TenantSpec],
        warmup_s: float = 0.002,
        measure_s: float = 0.02,
        seed: int = 1,
        drain: bool = True,
    ) -> RunResult:
        """Run every tenant's arrival process for ``warmup_s + measure_s``.

        Returns a :class:`RunResult` whose op counts/latencies cover
        operations *completing* inside the measurement window (the same
        convention as the closed-loop runner), plus open-loop accounting:
        ``offered_ops``/``rejected_ops``/``shed_ops`` and per-tenant
        :class:`TenantOutcome` records in :attr:`RunResult.tenants`.

        With ``drain=True`` (default) the run waits for in-flight
        operations to finish after the window closes — required when a
        verifier will inspect the index afterwards. ``drain=False``
        abandons the backlog, which is faster for uncontrolled-overload
        cells whose backlog is the failure being measured.
        """
        if not tenants:
            raise ConfigurationError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names: {names}")
        sim = self.cluster.sim
        obs = self.cluster.obs
        if obs is not None and obs.config.derive_slow_from_slo:
            # Slow = over *this tenant's* SLO: per-client thresholds keyed
            # by tenant index (the client_id stamped on the tenant's spans).
            for tenant_index, tenant in enumerate(tenants):
                if tenant.slo_p99_s is not None:
                    obs.set_client_slow_threshold(tenant_index, tenant.slo_p99_s)
        start_time = sim.now
        run = _RunState()
        states: List[_TenantState] = []
        op_procs: List[Any] = []
        compute_server = None
        session_seq = 0
        for tenant_index, tenant in enumerate(tenants):
            def on_transition(state: str, _name=tenant.name) -> None:
                if obs is not None:
                    obs.breaker_transition(_name, state)

            tstate = _TenantState(
                tenant, tenant_index, lambda: sim.now, on_transition
            )
            states.append(tstate)
            sessions = []
            for _ in range(tenant.sessions):
                if session_seq % self.clients_per_cs == 0:
                    compute_server = self.cluster.new_compute_server()
                session = index.session(compute_server)
                session.tenant = tenant.name
                sessions.append(session)
                session_seq += 1
            # Streams 1 (arrival clock) and 2 (op draws) per tenant, both
            # derived from the run seed — identical seeds replay identical
            # arrival timestamps and op sequences.
            arrival_rng = np.random.default_rng((seed, 1, tenant_index))
            draw_rng = np.random.default_rng((seed, 2, tenant_index))
            drawer = OpDrawer(
                tenant.workload, self.dataset, draw_rng, tstate,
                client_id=tenant_index,
            )
            self.cluster.spawn(
                self._arrival_loop(
                    tstate, sessions, drawer, arrival_rng, run,
                    start_time, op_procs,
                )
            )

        controller = self.cluster.spawn(
            self._controller(run, warmup_s, measure_s)
        )
        counters = sim.run_until_complete(controller)
        if drain and op_procs:
            sim.run_until_complete(sim.all_of(op_procs))

        window_end = run.measure_from + measure_s
        result = RunResult(
            design=index.design,
            workload="+".join(
                f"{t.name}:{t.workload.name}" for t in tenants
            ),
            num_clients=sum(t.sessions for t in tenants),
            window_s=measure_s,
            network=counters["network"],
            cpu_utilization=counters["cpu"],
        )
        for tstate in states:
            outcome = TenantOutcome(
                tenant=tstate.spec.name, slo_p99_s=tstate.spec.slo_p99_s
            )
            outcome.offered = sum(
                1 for t in tstate.offered_times
                if run.measure_from <= t <= window_end
            )
            for kind, op_type, op_start, op_end in tstate.events:
                if not run.measure_from <= op_end <= window_end:
                    continue
                if kind == "ok":
                    latency = op_end - op_start
                    outcome.accepted += 1
                    outcome.latencies.append(latency)
                    result.op_counts[op_type] = (
                        result.op_counts.get(op_type, 0) + 1
                    )
                    result.latencies.setdefault(op_type, []).append(latency)
                elif kind == "rejected":
                    outcome.rejected += 1
                elif kind == "shed":
                    outcome.shed += 1
                else:  # "error:<Name>"
                    name = kind.partition(":")[2]
                    outcome.errored += 1
                    result.errors[name] = result.errors.get(name, 0) + 1
            result.tenants[tstate.spec.name] = outcome
            result.offered_ops += outcome.offered
            result.rejected_ops += outcome.rejected
            result.shed_ops += outcome.shed
        if obs is not None:
            for outcome in result.tenants.values():
                attainment = outcome.slo_attainment
                if attainment is not None:
                    obs.registry.gauge(
                        "nam_slo_attainment", tenant=outcome.tenant
                    ).set(attainment)
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
        self, run: "_RunState", warmup_s: float, measure_s: float
    ) -> Generator[Any, Any, dict]:
        yield warmup_s
        baseline = self.cluster.reset_measurement()
        run.measure_from = self.cluster.now
        yield measure_s
        run.stop = True
        # Snapshot counters exactly at the window edge, before the drain.
        return self.cluster.measurement_delta(baseline)

    def _arrival_loop(
        self,
        tstate: _TenantState,
        sessions: List[Any],
        drawer: OpDrawer,
        rng: np.random.Generator,
        run: "_RunState",
        start_time: float,
        op_procs: List[Any],
    ) -> Generator[Any, Any, None]:
        """Thinned Poisson arrivals: one independent op process each."""
        sim = self.cluster.sim
        obs = self.cluster.obs
        arrivals = tstate.spec.arrivals
        peak = arrivals.peak_rate
        breaker = tstate.breaker
        next_session = 0
        while not run.stop:
            yield float(rng.exponential(1.0 / peak))
            if run.stop:
                break
            # Thinning: keep the candidate with probability rate/peak.
            if float(rng.random()) * peak > arrivals.rate_at(sim.now - start_time):
                continue
            now = sim.now
            tstate.offered_times.append(now)
            if breaker is not None and not breaker.allow():
                # Shed client-side: the breaker is open, don't even send.
                tstate.events.append(("shed", "", now, now))
                if obs is not None:
                    obs.load_shed(tstate.spec.name)
                continue
            op_kind, op = drawer.next_op()
            session = sessions[next_session]
            next_session = (next_session + 1) % len(sessions)
            op_procs.append(
                sim.process(self._one_op(tstate, session, op_kind, op, now))
            )

    def _one_op(
        self,
        tstate: _TenantState,
        session: Any,
        op_kind: str,
        op: Any,
        start: float,
    ) -> Generator[Any, Any, None]:
        """Execute one arrival, with budgeted application-level retries."""
        sim = self.cluster.sim
        obs = self.cluster.obs
        spec = tstate.spec
        breaker = tstate.breaker
        budget = tstate.budget
        span = obs.begin_op("op", tstate.index) if obs is not None else None
        attempt = 0
        while True:
            try:
                yield from op(session)
            except AdmissionRejectedError as exc:
                if breaker is not None:
                    breaker.record(False)
                if attempt < spec.max_op_retries and (
                    breaker is None or breaker.allow()
                ):
                    if budget is None or budget.try_spend():
                        # Deterministic linear backoff before re-offering;
                        # rejections carry no retry storm risk only
                        # because this path is budgeted.
                        attempt += 1
                        if spec.retry_backoff_s > 0:
                            backoff_start = sim.now
                            yield spec.retry_backoff_s * attempt
                            if obs is not None:
                                obs.stamp(
                                    "client_backoff", backoff_start, sim.now
                                )
                        continue
                    if obs is not None:
                        obs.retry_budget_exhausted(spec.name)
                outcome = ("rejected", type(exc).__name__)
                break
            except TimeoutError_ as exc:
                # Retry budgets already ran at the verb layer; an op that
                # spent them is an error, never re-offered load.
                if breaker is not None:
                    breaker.record(False)
                outcome = (f"error:{type(exc).__name__}", "")
                break
            else:
                if breaker is not None:
                    breaker.record(True)
                if budget is not None:
                    budget.on_success()
                outcome = ("ok", op_kind)
                break
        now = sim.now
        if outcome[0] == "ok":
            tstate.events.append(("ok", op_kind, start, now))
            final_type = op_kind
        elif outcome[0] == "rejected":
            tstate.events.append(("rejected", outcome[1], start, now))
            final_type = f"{OpType.ERROR}:{outcome[1]}"
        else:
            name = outcome[0].partition(":")[2]
            tstate.events.append((outcome[0], "", start, now))
            final_type = f"{OpType.ERROR}:{name}"
        if span is not None:
            obs.end_op(span, final_type)
            if outcome[0] != "ok":
                obs.flight_dump("errored-op", span)
            elif spec.slo_p99_s is not None and (now - start) > spec.slo_p99_s:
                obs.flight_dump("slo-violation", span)


class _RunState:
    """Run-wide flags shared by the controller and every arrival loop."""

    def __init__(self) -> None:
        self.stop = False
        self.measure_from: Optional[float] = None
