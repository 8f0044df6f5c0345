"""Open-loop, multi-tenant workload generation (docs/overload.md).

The closed loop of :meth:`~repro.workloads.runner.WorkloadRunner.run`
mirrors the paper's measurement rig: each client waits for one operation
before issuing the next, so offered load can never exceed completed load
and the system can never be pushed past saturation. Real traffic is not so
polite. :meth:`~repro.workloads.runner.WorkloadRunner.run_open` generates
**open-loop** arrivals — operations arrive on a schedule that does not
care whether earlier ones finished — which is the only way to observe
queueing collapse and admission control. The runner owns what both
disciplines share, the ``(session method, args)`` stream of
:func:`~repro.workloads.runner.draw_ops` among it; this module holds what
only the open loop does.

Pieces:

* :class:`TenantSpec` — one tenant: a name (stamped on every RPC envelope
  for server-side admission), a YCSB op mix, a Poisson arrival rate, an
  optional p99 SLO target and a count of application-level retries.
* :class:`Tenant` — one tenant of a run: its arrival loop, which draws
  exponential inter-arrival gaps from a seeded generator (identical seeds
  give identical arrival timestamps) and an operation per arrival, its
  operations with their application-level
  retries after a linear backoff, and the fold of its
  :class:`~repro.workloads.metrics.TenantOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import AdmissionRejectedError, ConfigurationError, TimeoutError_
from repro.workloads.metrics import OP_TYPES, OpType, RunResult, TenantOutcome
from repro.workloads.ycsb import WorkloadSpec

if TYPE_CHECKING:
    from repro.workloads.runner import _Run

__all__ = ["TenantSpec", "Tenant", "RETRY_BACKOFF_S"]

#: Backoff before an application-level retry, scaled by attempt number.
RETRY_BACKOFF_S = 100e-6


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant open-loop run."""

    name: str
    workload: WorkloadSpec
    #: Poisson arrival rate for the whole run. A flash crowd is a tenant
    #: at a higher rate.
    rate_ops_per_s: float
    #: p99 latency target (seconds); None = no SLO contract.
    slo_p99_s: Optional[float] = None
    #: Application-level retries allowed per rejected operation, the
    #: n-th after ``n * RETRY_BACKOFF_S``. They are not budgeted.
    max_op_retries: int = 1
    #: Index sessions (connection handles) the tenant's arrivals rotate
    #: over. Open-loop ops from one tenant may overlap arbitrarily; the
    #: session count only bounds connection-level state, not concurrency.
    sessions: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        # An infinite rate made run_open spin forever, a NaN one failed
        # deep inside the simulator.
        if not 0 < self.rate_ops_per_s < math.inf:
            raise ConfigurationError("rate_ops_per_s must be finite and > 0")
        if self.slo_p99_s is not None and not 0 < self.slo_p99_s < math.inf:
            raise ConfigurationError("slo_p99_s must be finite and > 0 (or None)")
        if self.max_op_retries < 0:
            raise ConfigurationError("max_op_retries must be >= 0")
        if self.sessions < 1:
            raise ConfigurationError("sessions must be >= 1")


class Tenant:
    """One tenant of an open-loop run: its arrival loop, its operations
    and its outcome. *index* is its position in the run, the client id
    stamped on its spans."""

    def __init__(
        self, spec: TenantSpec, index: int, run: _Run,
        stream: Iterator[Tuple[str, Tuple[Any, ...]]], sessions: List[Any],
    ) -> None:
        self.spec = spec
        self.index = index
        self.run = run
        self.stream = stream
        self.sessions = sessions
        for session in sessions:
            session.tenant = spec.name
        # Arrival times; end times of rejected operations; (op_type, start,
        # end) of the rest, in the runner's record format.
        self.offered: List[float] = []
        self.rejected: List[float] = []
        self.records: List[Tuple[str, float, float]] = []
        obs = run.cluster.obs
        if obs is not None and obs.config.derive_slow_from_slo and spec.slo_p99_s:
            # Slow = over *this tenant's* SLO (keyed by the client id
            # stamped on its spans).
            obs.set_client_slow_threshold(index, spec.slo_p99_s)

    def arrivals(self, rng: np.random.Generator) -> Generator[Any, Any, None]:
        """Poisson arrivals: one independent op process each."""
        run = self.run
        sim = run.cluster.sim
        gap = 1.0 / self.spec.rate_ops_per_s
        sessions = self.sessions
        next_session = 0
        while not run.stop:
            yield float(rng.exponential(gap))
            if run.stop:
                break
            now = sim.now
            self.offered.append(now)
            method, args = next(self.stream)
            session = sessions[next_session]
            next_session = (next_session + 1) % len(sessions)
            run.spawn(session, self._one_op(session, method, args, now))

    def _one_op(
        self, session: Any, method: str, args: Tuple[Any, ...], start: float
    ) -> Generator[Any, Any, None]:
        """Execute one arrival, with its application-level retries."""
        op_kind = OP_TYPES[method]
        sim = self.run.cluster.sim
        obs = self.run.cluster.obs
        spec = self.spec
        span = obs.begin_op("op", self.index) if obs is not None else None
        attempt = 0
        rejected = False
        while True:
            try:
                yield from getattr(session, method)(*args)
            except AdmissionRejectedError as exc:
                if attempt < spec.max_op_retries:
                    # Deterministic linear backoff before re-offering.
                    attempt += 1
                    backoff_start = sim.now
                    yield RETRY_BACKOFF_S * attempt
                    if obs is not None:
                        obs.stamp("client_backoff", backoff_start, sim.now)
                    continue
                op_type = f"{OpType.ERROR}:{type(exc).__name__}"
                rejected = True
            except TimeoutError_ as exc:
                # Retry budgets already ran at the verb layer; an op that
                # spent them is an error, never re-offered load.
                op_type = f"{OpType.ERROR}:{type(exc).__name__}"
            else:
                op_type = op_kind
            break
        now = sim.now
        if rejected:
            self.rejected.append(now)
        else:
            self.records.append((op_type, start, now))
        if span is not None:
            obs.end_op(span, op_type)
            if op_type != op_kind:
                obs.flight.dump("errored-op", span)
            elif spec.slo_p99_s is not None and (now - start) > spec.slo_p99_s:
                obs.flight.dump("slo-violation", span)

    def fold(self, result: RunResult) -> None:
        """Add this tenant's window to *result*: its completed operations
        through the run's fold, its offered and rejected arrivals beside
        them, its outcome, and its SLO attainment gauge."""
        run = self.run
        outcome = TenantOutcome(tenant=self.spec.name, slo_p99_s=self.spec.slo_p99_s)
        outcome.offered = run.count_in_window(self.offered)
        outcome.rejected = run.count_in_window(self.rejected)
        run.fold(result, self.records, outcome)
        outcome.accepted = len(outcome.latencies)
        result.tenants[outcome.tenant] = outcome
        result.offered_ops += outcome.offered
        result.rejected_ops += outcome.rejected
        obs = run.cluster.obs
        attainment = outcome.slo_attainment
        if obs is not None and attainment is not None:
            obs.registry.gauge("nam_slo_attainment", tenant=outcome.tenant).set(attainment)
