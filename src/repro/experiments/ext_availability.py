"""Extension: availability under memory-server crashes (replication).

The paper's NAM architecture treats memory servers as reliable; this
extension measures what the primary/backup replication layer
(:mod:`repro.nam.replication`) buys and costs:

* **Availability** — run a write-heavy workload, destructively crash one
  memory server mid-window (``replication_factor=2``), and chart the
  throughput dip and the *recovery time*: how long until the cluster is
  back to its pre-crash rate. Failover is client-driven (the first client
  whose retries exhaust promotes a backup), so recovery time is dominated
  by the retry budget, not by any coordinator.
* **Replicated-write overhead** — the same workload on a healthy cluster
  at factor 1 vs factor 2; the slowdown is the synchronous mirror legs
  every mutation pays.

Each availability cell ends with the online verifier
(:func:`repro.index.verify.verify_index`) and a replica byte-equality
check, so a run doubles as a chaos test: ``python -m repro gate
availability --seed N`` (the CI seed matrix) judges the ``CLAIMS`` alone
on any seed but the one ``BENCH_availability.json`` was recorded at.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.config import ObservabilityConfig
from repro.experiments.common import (
    DESIGNS,
    build_index,
    cluster_config,
    format_rate,
    print_table,
    write_obs_artifacts,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import SMALL, ExperimentScale
from repro.index.verify import verify_index
from repro.nam.cluster import Cluster
from repro.rdma.faults import FaultPlan, ServerCrash
from repro.workloads import WorkloadRunner, generate_dataset, workload_d

__all__ = [
    "AvailabilityCell",
    "run",
    "print_figure",
    "CLAIMS",
    "DEFAULT_SCALE",
]

DEFAULT_SCALE = SMALL


@dataclass
class AvailabilityCell:
    """One design's availability + overhead measurements."""

    design: str
    #: Ops/s in the pre-crash part of the window.
    pre_crash_throughput: float
    #: Lowest bucket throughput observed after the crash.
    dip_throughput: float
    #: Seconds from the crash until a bucket regains RECOVERY_FRACTION of
    #: the pre-crash rate (inf = never within the window).
    recovery_time_s: float
    #: Ops/s at replication factor 1 / factor 2 on a healthy cluster.
    unreplicated_throughput: float
    replicated_throughput: float
    #: Operations that surfaced typed errors during the crash window.
    errored_ops: int
    #: Replication-layer counters of the crash run.
    failovers: int
    re_replications: int
    #: What the online verifier and the replica byte-equality check found.
    violations: List[str]

    @property
    def write_overhead(self) -> float:
        """Healthy-cluster slowdown factor of replication (>= 1 is cost)."""
        if self.replicated_throughput <= 0:
            return float("inf")
        return self.unreplicated_throughput / self.replicated_throughput


#: A bucket counts as "recovered" at this fraction of the pre-crash rate.
#: Deliberately below 2/3: there is no failback, so after a crash the
#: promoted host serves two partitions on one worker pool and a CPU-bound
#: design legitimately stabilizes near (N-1)/N of its pre-crash rate.
RECOVERY_FRACTION = 0.6
_BUCKETS = 24


def _bucket_throughput(
    records: List[Tuple[str, float, float]], start: float, end: float
) -> List[Tuple[float, float]]:
    """``(bucket_start, ops/s)`` for completions in ``[start, end)``."""
    width = (end - start) / _BUCKETS
    counts = [0] * _BUCKETS
    for op_type, _op_start, op_end in records:
        if op_type.startswith("error") or not start <= op_end < end:
            continue
        counts[min(_BUCKETS - 1, int((op_end - start) / width))] += 1
    return [(start + i * width, counts[i] / width) for i in range(_BUCKETS)]


def _healthy_throughput(
    design: str, scale: ExperimentScale, factor: int, num_clients: int, seed: int
) -> float:
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(cluster_config(scale, seed, replication_factor=factor))
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index,
        workload_d(),
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    return result.throughput


def _availability_cell(
    design: str,
    scale: ExperimentScale,
    num_clients: int,
    seed: int,
    artifacts: Optional[Path] = None,
) -> Dict[str, Any]:
    """The crash run's fields of one design's :class:`AvailabilityCell`."""
    # Observability is attached only when a CI artifacts dir is requested;
    # the simulation is byte-identical either way (the instrumentation
    # never schedules events), so measurements are unaffected.
    obs_config = (
        ObservabilityConfig(
            enabled=True, timeseries_cadence_s=scale.measure_s / 4.0
        )
        if artifacts is not None
        else ObservabilityConfig()
    )
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(
        cluster_config(scale, seed, replication_factor=2, observability=obs_config)
    )
    index = build_index(cluster, design, dataset)

    # Crash a third into the measurement window; restart two thirds in, so
    # the run also exercises resync + background re-replication.
    measure_s = scale.measure_s * 4
    crash_at = scale.warmup_s + measure_s / 3
    victim = 1 % scale.num_memory_servers
    plan = FaultPlan(
        seed=seed,
        server_crashes=(
            ServerCrash(victim, at_s=crash_at, down_for_s=measure_s / 3),
        ),
    )
    injector = cluster.attach_faults(plan)

    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index,
        workload_d(),
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=measure_s,
        seed=seed,
        keep_records=True,
    )
    injector.quiesce()

    buckets = _bucket_throughput(
        result.raw_records, scale.warmup_s, scale.warmup_s + measure_s
    )
    pre = [rate for at, rate in buckets if at + (buckets[1][0] - buckets[0][0]) <= crash_at]
    pre_rate = sum(pre) / len(pre) if pre else 0.0
    post = [(at, rate) for at, rate in buckets if at >= crash_at]
    dip = min((rate for _at, rate in post), default=0.0)
    recovery = float("inf")
    for at, rate in post:
        if pre_rate > 0 and rate >= RECOVERY_FRACTION * pre_rate:
            recovery = max(0.0, at - crash_at)
            break

    report = verify_index(cluster, index)
    if artifacts is not None:
        # Snapshot after the verifier so a verifier-failure flight dump
        # (and the crash/restart fault events) land in the bundle.
        write_obs_artifacts(
            cluster.obs.snapshot() if cluster.obs is not None else None,
            artifacts,
            f"availability-{design}",
        )
    stats = cluster.replication.stats
    return dict(
        pre_crash_throughput=pre_rate,
        dip_throughput=dip,
        recovery_time_s=recovery,
        errored_ops=sum(result.errors.values()),
        failovers=stats.get("failovers", 0),
        re_replications=stats.get("re_replications", 0),
        violations=list(report.violations),
    )


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    num_clients: int = 20,
    artifacts: Optional[Path] = None,
) -> Dict[str, AvailabilityCell]:
    """Run the availability + overhead grid; returns per-design cells."""
    seed = scale.seed if seed is None else seed
    results: Dict[str, AvailabilityCell] = {}
    for design in DESIGNS:
        results[design] = AvailabilityCell(
            design=design,
            unreplicated_throughput=_healthy_throughput(
                design, scale, 1, num_clients, seed
            ),
            replicated_throughput=_healthy_throughput(
                design, scale, 2, num_clients, seed
            ),
            **_availability_cell(design, scale, num_clients, seed, artifacts=artifacts),
        )
    return results


CLAIMS = (
    # No lost structure, no replica divergence, on any design.
    Claim("verifier_ok", lambda r: sum(len(c.violations) for c in r.values()), "==", 0),
    # The crash is real: every design's clients promoted a backup.
    Claim("crash_triggers_failover", lambda r: min(c.failovers for c in r.values()), ">=", 1),
    # The crash dents throughput but never floors it for the window ...
    Claim("crash_dip_below_pre_crash_rate",
          lambda r: max(c.dip_throughput / c.pre_crash_throughput for c in r.values()),
          "<", 1.0),
    # ... and replication stays a modest tax on a healthy cluster.
    Claim("replication_write_overhead",
          lambda r: max(c.write_overhead for c in r.values()), "<", 2.0),
)


def print_figure(results: Mapping[str, AvailabilityCell]) -> None:
    """Print the per-design availability series."""
    columns = ("pre-crash", "dip", "recovery", "overhead", "verify")
    rows = {}
    for design, cell in results.items():
        recovery = (
            f"{cell.recovery_time_s * 1e3:.2f}ms"
            if cell.recovery_time_s != float("inf")
            else "never"
        )
        rows[design] = [
            format_rate(cell.pre_crash_throughput),
            format_rate(cell.dip_throughput),
            recovery,
            f"{cell.write_overhead:.2f}x",
            "FAIL" if cell.violations else "OK",
        ]
    print_table(
        "Extension - availability under a memory-server crash (factor=2)",
        columns,
        rows,
        col_header="",
    )
    for design, cell in results.items():
        print(
            f"  {design}: {cell.errored_ops} errored ops, "
            f"{cell.failovers} failovers, "
            f"{cell.re_replications} re-replications"
        )
        for violation in cell.violations[:8]:
            print(f"    VIOLATION: {violation}")
