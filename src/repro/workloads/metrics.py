"""Operation types and records, result containers and summary statistics
for workload runs. An operation is a ``(session method, args)`` pair."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["OP_TYPES", "Op", "OpType", "RunResult", "TenantOutcome"]


class OpType:
    """Operation categories recorded by the runner."""

    POINT = "point"
    RANGE = "range"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"
    #: Operation that surfaced a typed fault (timeout / retries exhausted).
    #: Deliberately not part of ``ALL``: errored operations count in
    #: :attr:`RunResult.errors`, never in throughput or latency figures.
    ERROR = "error"
    ALL = (POINT, RANGE, INSERT, DELETE, UPDATE)


#: The :class:`OpType` each session method counts under. ``update`` is
#: issued only by :class:`~repro.workloads.history.Scenario` streams.
OP_TYPES: Dict[str, str] = {
    "lookup": OpType.POINT,
    "range_scan": OpType.RANGE,
    "insert": OpType.INSERT,
    "delete": OpType.DELETE,
    "update": OpType.UPDATE,
}


@dataclass
class Op:
    """One operation: its client and call, its sim times, its result or typed
    error. ``responded_at`` stays None if a compute-server crash kills it."""

    client: int
    method: str
    args: Tuple[Any, ...]
    invoked_at: float
    responded_at: Optional[float] = None
    result: Any = None


@dataclass
class TenantOutcome:
    """One tenant's view of an open-loop run's measurement window.

    Produced by :meth:`~repro.workloads.runner.WorkloadRunner.run_open`;
    keyed by tenant name in :attr:`RunResult.tenants`. "Accepted" means the
    operation completed successfully inside the window; offered arrivals
    that were still in flight at the window edge count in ``offered``
    only.
    """

    tenant: str
    #: Arrivals the generator produced inside the window (open loop: this
    #: is independent of what the system managed to serve).
    offered: int = 0
    #: Operations that completed successfully inside the window.
    accepted: int = 0
    #: Operations the servers bounced (admission control / rate limit).
    rejected: int = 0
    #: Operations that surfaced a typed fault (timeouts, failovers).
    errored: int = 0
    #: Latencies (seconds) of the accepted operations.
    latencies: List[float] = field(default_factory=list)
    #: This tenant's p99 latency target; None = no SLO contract.
    slo_p99_s: Optional[float] = None

    def latency_percentile(self, percentile: float) -> float:
        if not self.latencies:
            return float("nan")
        return float(np.percentile(self.latencies, percentile))

    @property
    def p99_s(self) -> float:
        return self.latency_percentile(99)

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of accepted operations meeting the p99 target; the SLO
        holds when this is >= 0.99. None without a target or samples."""
        if self.slo_p99_s is None or not self.latencies:
            return None
        met = sum(1 for lat in self.latencies if lat <= self.slo_p99_s)
        return met / len(self.latencies)


@dataclass
class RunResult:
    """Measured outcome of one workload run (one design, one client count).

    All rates are computed over the measurement window only (after
    warm-up); latencies are per completed operation, in seconds.
    """

    design: str
    workload: str
    num_clients: int
    window_s: float
    op_counts: Dict[str, int] = field(default_factory=dict)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-memory-server (bytes_tx, bytes_rx) over the window.
    network: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Per-memory-server mean RPC-worker utilization over the window.
    cpu_utilization: Dict[int, float] = field(default_factory=dict)
    #: Typed-fault counts (``{"TimeoutError_": n, ...}``) for operations
    #: that failed inside the window. Empty unless faults were injected.
    errors: Dict[str, int] = field(default_factory=dict)
    #: Every operation of the whole run (not just the window) as an
    #: :class:`Op`, in issue order. Populated only when the runner is asked
    #: for them (``keep_records=True``) — availability experiments use
    #: these to plot throughput dips and recovery times around crashes.
    raw_records: List[Op] = field(default_factory=list)
    #: Total verb/RPC retry attempts recorded by the observability
    #: registry over the whole run. Stays 0 when observability is off
    #: (the registry is the only place retries are counted per verb).
    retries: int = 0
    #: Full observability snapshot (metrics + sampled/slow span trees),
    #: straight from :meth:`repro.obs.hub.Observability.snapshot`. None
    #: unless the cluster was built with observability enabled.
    observability: Optional[Dict[str, Any]] = None
    #: Open-loop accounting (docs/overload.md). All zero/empty for
    #: closed-loop runs, where offered load equals completed load by
    #: construction. ``offered_ops`` counts generator arrivals inside the
    #: window; ``rejected_ops`` server-side admission bounces.
    offered_ops: int = 0
    rejected_ops: int = 0
    #: Per-tenant outcomes of an open-loop run, keyed by tenant name.
    tenants: Dict[str, TenantOutcome] = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())

    @property
    def accepted_ops(self) -> int:
        """Operations completed inside the window — the goodput numerator.
        Alias of :attr:`total_ops` under the open-loop vocabulary."""
        return self.total_ops

    @property
    def slo_attainment(self) -> Optional[float]:
        """Worst per-tenant SLO attainment (the binding tenant), or None
        when no tenant carries a latency target."""
        attainments = [
            outcome.slo_attainment
            for outcome in self.tenants.values()
            if outcome.slo_attainment is not None
        ]
        return min(attainments) if attainments else None

    @property
    def goodput(self) -> float:
        """Successfully served operations per second (= throughput; named
        for the overload experiments where offered >> served)."""
        return self.throughput

    @property
    def errored_ops(self) -> int:
        """Operations that surfaced a typed fault inside the window."""
        return sum(self.errors.values())

    @property
    def throughput(self) -> float:
        """Completed operations per second (the paper's "Lookups/s")."""
        if self.window_s <= 0:
            return 0.0
        return self.total_ops / self.window_s

    def throughput_of(self, op_type: str) -> float:
        if self.window_s <= 0:
            return 0.0
        return self.op_counts.get(op_type, 0) / self.window_s

    @property
    def network_bytes(self) -> int:
        return sum(tx + rx for tx, rx in self.network.values())

    @property
    def network_gb_per_s(self) -> float:
        """Aggregate memory-server traffic (the paper's Figure 9 metric)."""
        if self.window_s <= 0:
            return 0.0
        return self.network_bytes / self.window_s / 1e9

    def latency_mean(self, op_type: str) -> float:
        samples = self.latencies.get(op_type)
        return float(np.mean(samples)) if samples else float("nan")

    def latency_percentile(self, op_type: str, percentile: float) -> float:
        samples = self.latencies.get(op_type)
        if not samples:
            return float("nan")
        return float(np.percentile(samples, percentile))

    def summary(self) -> str:
        parts = [
            f"{self.design} / {self.workload} / {self.num_clients} clients:",
            f"{self.throughput:,.0f} ops/s",
            f"{self.network_gb_per_s:.3f} GB/s",
        ]
        for op_type in OpType.ALL:
            if self.op_counts.get(op_type):
                parts.append(
                    f"{op_type} p50={self.latency_percentile(op_type, 50) * 1e6:.1f}us"
                )
        return "  ".join(parts)
