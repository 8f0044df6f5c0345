"""Extension: where does the tail go? Critical-path latency attribution.

The paper's latency analysis (Section 2.3, Figures 13/14) reports *how
long* operations take per design; this grid reports *where that time
goes* — and, more to the point, where the **p99 tail** spends time that
the median op does not. Each cell runs an open-loop single-tenant
workload against one traversal design with observability enabled, then
post-processes the retained span trees through
:mod:`repro.obs.attribution` into the closed segment taxonomy
(``nic_queue``, ``network_flight``, ``server_rpc_queue``, ``server_cpu``,
``lock_wait``, ``client_backoff``, ``admission_reject``,
``client_think``).

Grid: design (coarse-grained / fine-grained / hybrid) x request skew
(uniform / zipf) x load phase (steady / flash crowd). Admission control
is enabled, so the flash cells exercise the rejection segment, tenant
SLO violations feed the flight recorder, and the per-server time series
capture the burst. The headline: steady-state attribution is dominated
by wire flight, while the flash-crowd tail shifts toward queueing
segments — per design, the decomposition names the bottleneck the
design's own tradeoffs predict.

Gated by ``python -m repro gate tail`` against ``BENCH_tail.json``; the
``CLAIMS`` are the structural promises of the attribution stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.config import AdmissionConfig, ClusterConfig, CpuConfig, ObservabilityConfig
from repro.experiments.common import (
    DESIGNS,
    cluster_config,
    format_rate,
    measure_capacity,
    pooled_percentile,
    print_table,
    run_open_cell,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale
from repro.obs.attribution import (
    SEGMENTS,
    aggregate_attributions,
    attribute_span_dict,
)
from repro.obs.export import retained_spans
from repro.workloads import ArrivalProcess, TenantSpec, WorkloadSpec

__all__ = [
    "TailCell",
    "SKEWS",
    "PHASES",
    "run",
    "print_figure",
    "CLAIMS",
    "DEFAULT_SCALE",
]

#: Request-key distributions (WorkloadSpec.distribution values).
SKEWS: Dict[str, str] = {"uniform": "uniform", "zipf": "scrambled_zipfian"}
#: Offered load as a multiple of measured closed-loop capacity. The flash
#: phase offers the steady base rate times a burst multiplier that covers
#: the whole window — a sustained flash crowd.
PHASES: Dict[str, float] = {"steady": 0.6, "flash": 3.0}

#: Single tenant: its p99 SLO (drives derive_slow_from_slo thresholds and
#: flight-recorder slo-violation dumps) and its admission allowance as a
#: fraction of capacity — above steady load, below the flash crowd.
SLO_P99_S = 150e-6
ADMIT_FRACTION = 1.2

CORES_PER_SERVER = 2

DEFAULT_SCALE = ExperimentScale(
    num_keys=8_000,
    num_memory_servers=2,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.004,
)


@dataclass
class TailCell:
    """One (design, skew, phase) attributed open-loop measurement."""

    design: str
    skew: str
    phase: str
    load_multiple: float
    capacity_ops_s: float
    offered_ops: int
    accepted_ops: int
    rejected_ops: int
    errored_ops: int
    goodput_ops_s: float
    p50_s: float
    p99_s: float
    #: Spans retained by sampling + the slow-op hook (attribution input).
    retained_ops: int
    #: Mean attribution share per segment: typical ops (fastest half) and
    #: tail ops (slowest 1%, at least one).
    p50_share: Dict[str, float] = field(default_factory=dict)
    p99_share: Dict[str, float] = field(default_factory=dict)
    #: The tail's dominant segment (largest p99 share).
    tail_top_segment: str = ""
    flight_dumps: int = 0
    flight_dumps_suppressed: int = 0
    timeseries_points: int = 0

    @property
    def key(self) -> str:
        return cell_key(self.design, self.skew, self.phase)

    @property
    def goodput_fraction(self) -> float:
        if self.capacity_ops_s <= 0:
            return 0.0
        return self.goodput_ops_s / self.capacity_ops_s


def cell_key(design: str, skew: str, phase: str) -> str:
    return f"{design}/{skew}/{phase}"


def _cluster_config(
    capacity: float, scale: ExperimentScale, seed: int
) -> ClusterConfig:
    per_server = ADMIT_FRACTION * capacity / scale.num_memory_servers
    return cluster_config(
        scale,
        seed,
        cpu=CpuConfig(cores_per_server=CORES_PER_SERVER),
        admission=AdmissionConfig(
            enabled=True,
            max_queue_depth=16,
            tenant_rate_ops={"app": per_server},
            tenant_burst_ops=32.0,
        ),
        observability=ObservabilityConfig(
            enabled=True,
            sample_every=8,
            timeseries_cadence_s=scale.measure_s / 16.0,
            derive_slow_from_slo=True,
        ),
    )


def _tenant(capacity: float, skew: str, phase: str) -> TenantSpec:
    base_rate = PHASES["steady"] * capacity
    multiplier = PHASES[phase] / PHASES["steady"]
    if multiplier > 1.0:
        arrivals = ArrivalProcess(
            rate_ops_per_s=base_rate,
            burst_multiplier=multiplier,
            burst_start_s=0.0,
            burst_duration_s=1.0,
        )
    else:
        arrivals = ArrivalProcess(rate_ops_per_s=base_rate)
    return TenantSpec(
        name="app",
        # 5% inserts keep lock traffic (and the lock_wait segment) alive.
        workload=WorkloadSpec(
            name=f"tail-{skew}",
            point_fraction=0.95,
            insert_fraction=0.05,
            distribution=SKEWS[skew],
        ),
        arrivals=arrivals,
        slo_p99_s=SLO_P99_S,
        max_op_retries=1,
        sessions=16,
    )


def _attribution_summary(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Typical-vs-tail attribution shares over a snapshot's retained spans."""
    attributed: List[Tuple[float, Dict[str, float]]] = []
    for span in retained_spans(snapshot):
        finished = span["finished_at"]
        if finished is None:
            finished = span["started_at"]
        attributed.append(
            (finished - span["started_at"], attribute_span_dict(span))
        )
    attributed.sort(key=lambda item: item[0])
    if not attributed:
        return {"retained": 0, "p50_share": {}, "p99_share": {}, "top": ""}
    typical = attributed[: max(1, len(attributed) // 2)]
    tail = attributed[-max(1, len(attributed) // 100):]
    p50 = aggregate_attributions(attr for _d, attr in typical)
    p99 = aggregate_attributions(attr for _d, attr in tail)
    top = max(SEGMENTS, key=lambda label: p99[label])
    return {"retained": len(attributed), "p50_share": p50,
            "p99_share": p99, "top": top}


def _measure_cell(
    design: str,
    skew: str,
    phase: str,
    capacity: float,
    scale: ExperimentScale,
    seed: int,
    artifacts: Optional[Path] = None,
) -> TailCell:
    result = run_open_cell(
        _cluster_config(capacity, scale, seed),
        design,
        [_tenant(capacity, skew, phase)],
        scale,
        seed,
        artifacts,
        cell_key(design, skew, phase).replace("/", "-"),
    )
    snapshot = result.observability
    summary = _attribution_summary(snapshot)
    flight = snapshot.get("flight", {})
    return TailCell(
        design=design,
        skew=skew,
        phase=phase,
        load_multiple=PHASES[phase],
        capacity_ops_s=capacity,
        offered_ops=result.offered_ops,
        accepted_ops=result.accepted_ops,
        rejected_ops=result.rejected_ops,
        errored_ops=result.errored_ops,
        goodput_ops_s=result.goodput,
        p50_s=pooled_percentile(result, 50),
        p99_s=pooled_percentile(result, 99),
        retained_ops=summary["retained"],
        p50_share=summary["p50_share"],
        p99_share=summary["p99_share"],
        tail_top_segment=summary["top"],
        flight_dumps=len(flight.get("dumps", [])),
        flight_dumps_suppressed=flight.get("dumps_suppressed", 0),
        timeseries_points=sum(
            len(series["points"]) for series in snapshot.get("timeseries", [])
        ),
    )


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    artifacts: Optional[Path] = None,
) -> Dict[str, TailCell]:
    """Measure the design x skew x phase grid; keyed by ``design/skew/phase``."""
    seed = scale.seed if seed is None else seed
    results: Dict[str, TailCell] = {}
    for design in DESIGNS:
        capacity = measure_capacity(design, scale, seed, CORES_PER_SERVER)
        for skew in SKEWS:
            for phase in PHASES:
                cell = _measure_cell(
                    design, skew, phase, capacity, scale, seed,
                    artifacts=artifacts,
                )
                results[cell.key] = cell
    return results


def _worst_share_sum_error(results: Mapping[str, TailCell]) -> float:
    """Largest distance from 1 of any cell's p50 or p99 share vector."""
    return max(
        abs(sum(share.get(label, 0.0) for label in SEGMENTS) - 1.0)
        for cell in results.values()
        for share in (cell.p50_share, cell.p99_share)
    )


CLAIMS = (
    # Every cell retains spans for attribution (sampling + slow-op hook).
    Claim("every_cell_retains_spans",
          lambda r: min(c.retained_ops for c in r.values()), ">", 0),
    # Attributions reconcile: shares sum to 1 (they reconcile exactly in
    # seconds; normalization only divides by the same duration).
    Claim("attribution_shares_sum_to_one", _worst_share_sum_error, "<=", 1e-6),
    Claim("every_cell_samples_time_series",
          lambda r: min(c.timeseries_points for c in r.values()), ">", 0),
    # Flash crowds violate the SLO, so they must reach the flight recorder.
    Claim("flash_exercises_flight_recorder",
          lambda r: min(c.flight_dumps + c.flight_dumps_suppressed
                        for c in r.values() if c.phase == "flash"), ">", 0),
)


def print_figure(results: Dict[str, TailCell]) -> None:
    """One table per design; rows are skew/phase cells."""
    for design in DESIGNS:
        rows = {}
        capacity = 0.0
        for skew in SKEWS:
            for phase in PHASES:
                cell = results[cell_key(design, skew, phase)]
                capacity = cell.capacity_ops_s
                top = cell.tail_top_segment
                top_share = cell.p99_share.get(top, 0.0)
                rows[f"{skew}/{phase}"] = [
                    f"{cell.offered_ops}",
                    format_rate(cell.goodput_ops_s),
                    f"{cell.p50_s * 1e6:.0f}us",
                    f"{cell.p99_s * 1e6:.0f}us",
                    f"{cell.rejected_ops}",
                    f"{top} {top_share:.0%}" if top else "-",
                    f"{cell.flight_dumps}+{cell.flight_dumps_suppressed}",
                ]
        print_table(
            f"Extension - tail-latency attribution, design={design} "
            f"(capacity {format_rate(capacity)}/s)",
            ["offered", "goodput", "p50", "p99", "rejected",
             "tail bottleneck", "dumps"],
            rows,
            col_header="cell",
        )
    print(
        "  tail bottleneck = largest p99 attribution share "
        "(dumps = kept+suppressed flight bundles)"
    )
