"""Extension: flash-crowd overload — admission control vs. collapse.

The paper's closed-loop clients can never push a NAM cluster past
saturation: offered load is bounded by completed load by construction.
This grid opens the loop (docs/overload.md): a two-tenant mix — a
rate-limited *interactive* tenant carrying a p99 SLO and an abusive
*flood* tenant — offers Poisson arrivals against the coarse-grained
design, sweeping **offered load** (steady / surge / 5x flash crowd)
against **admission policy** (none / token-bucket + bounded queues +
bulkhead worker pools).

Per cell: offered/accepted/rejected counts, goodput against the
measured closed-loop capacity, accepted-op p99, and the interactive
tenant's SLO attainment. The headline is the ``CLAIMS`` below: under a 5x
flash crowd the admission-controlled system keeps its p99, goodput and
interactive SLO, while the uncontrolled baseline collapses. Gated by
``python -m repro gate overload`` against ``BENCH_overload.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.config import AdmissionConfig, ClusterConfig, CpuConfig, ObservabilityConfig
from repro.experiments.common import (
    cluster_config,
    format_rate,
    measure_capacity,
    pooled_percentile,
    print_table,
    run_open_cell,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale
from repro.workloads import TenantSpec, WorkloadSpec

__all__ = [
    "OverloadCell",
    "POLICIES",
    "LOADS",
    "run",
    "print_figure",
    "p99_ratio",
    "CLAIMS",
    "DEFAULT_SCALE",
]

#: Offered-load levels as multiples of measured closed-loop capacity.
LOADS: Dict[str, float] = {"steady": 0.6, "surge": 2.0, "flash": 5.0}
POLICIES: Tuple[str, ...] = ("none", "admission")

#: Interactive tenant's p99 SLO target (absolute; the steady-state p99
#: at these scales sits well under it, the uncontrolled flash crowd far
#: above it).
INTERACTIVE_SLO_P99_S = 100e-6
#: Tenant rates as fractions of capacity: interactive offers a constant
#: quarter of capacity; flood offers the rest of the load level, and at
#: least its base fraction.
INTERACTIVE_FRACTION = 0.25
FLOOD_FRACTION = 0.35
#: Admission policy: flood's aggregate token-bucket allowance (fraction
#: of capacity, split evenly across memory servers).
FLOOD_RATE_LIMIT_FRACTION = 0.5

#: Two RPC workers per memory server: one bulkheaded for the flood
#: tenant under the admission policy, one left in the shared pool.
CORES_PER_SERVER = 2

DEFAULT_SCALE = ExperimentScale(
    num_keys=8_000,
    num_memory_servers=2,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.004,
)


@dataclass
class OverloadCell:
    """One (policy, load level) open-loop measurement."""

    policy: str
    load: str
    #: Target offered load as a multiple of capacity (from :data:`LOADS`).
    load_multiple: float
    capacity_ops_s: float
    offered_ops: int
    accepted_ops: int
    rejected_ops: int
    errored_ops: int
    goodput_ops_s: float
    accepted_p99_s: float
    interactive_p99_s: float
    interactive_slo_attainment: Optional[float]
    flood_accepted: int
    flood_rejected: int

    @property
    def key(self) -> str:
        return cell_key(self.policy, self.load)

    @property
    def goodput_fraction(self) -> float:
        if self.capacity_ops_s <= 0:
            return 0.0
        return self.goodput_ops_s / self.capacity_ops_s


def cell_key(policy: str, load: str) -> str:
    return f"{policy}/{load}"


def _cluster_config(
    policy: str, capacity: float, scale: ExperimentScale, seed: int
) -> ClusterConfig:
    admission = AdmissionConfig()
    if policy == "admission":
        per_server = (
            FLOOD_RATE_LIMIT_FRACTION * capacity / scale.num_memory_servers
        )
        admission = AdmissionConfig(
            enabled=True,
            max_queue_depth=8,
            tenant_rate_ops={"flood": per_server},
            bulkhead_workers={"flood": 1},
        )
    return cluster_config(
        scale,
        seed,
        cpu=CpuConfig(cores_per_server=CORES_PER_SERVER),
        admission=admission,
        observability=ObservabilityConfig(enabled=True),
    )


def _tenants(capacity: float, load_multiple: float) -> List[TenantSpec]:
    interactive_rate = INTERACTIVE_FRACTION * capacity
    # Above the base fraction the flood is a flash crowd sustained for the
    # whole run, the regime where open vs closed loop actually differ.
    flood_rate = max(
        FLOOD_FRACTION * capacity, load_multiple * capacity - interactive_rate
    )
    return [
        TenantSpec(
            name="interactive",
            workload=WorkloadSpec(name="reads", point_fraction=1.0),
            rate_ops_per_s=interactive_rate,
            slo_p99_s=INTERACTIVE_SLO_P99_S,
            max_op_retries=2,
            sessions=16,
        ),
        TenantSpec(
            name="flood",
            # 5% inserts keep the mutating-RPC admission path hot.
            workload=WorkloadSpec(
                name="mixed", point_fraction=0.95, insert_fraction=0.05
            ),
            rate_ops_per_s=flood_rate,
            # The flash crowd does not retry: the server-side policy
            # alone must contain it.
            max_op_retries=0,
            sessions=32,
        ),
    ]


def _measure_cell(
    policy: str,
    load: str,
    capacity: float,
    scale: ExperimentScale,
    seed: int,
    artifacts: Optional[Path] = None,
) -> OverloadCell:
    load_multiple = LOADS[load]
    result = run_open_cell(
        _cluster_config(policy, capacity, scale, seed),
        "coarse-grained",
        _tenants(capacity, load_multiple),
        scale,
        seed,
        artifacts,
        f"overload-{policy}-{load}",
    )
    interactive = result.tenants["interactive"]
    flood = result.tenants["flood"]
    return OverloadCell(
        policy=policy,
        load=load,
        load_multiple=load_multiple,
        capacity_ops_s=capacity,
        offered_ops=result.offered_ops,
        accepted_ops=result.accepted_ops,
        rejected_ops=result.rejected_ops,
        errored_ops=result.errored_ops,
        goodput_ops_s=result.goodput,
        accepted_p99_s=pooled_percentile(result, 99),
        interactive_p99_s=(
            interactive.p99_s if interactive.latencies else 0.0
        ),
        interactive_slo_attainment=interactive.slo_attainment,
        flood_accepted=flood.accepted,
        flood_rejected=flood.rejected,
    )


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    artifacts: Optional[Path] = None,
) -> Dict[str, OverloadCell]:
    """Measure the policy x offered-load grid; keyed by ``policy/load``."""
    seed = scale.seed if seed is None else seed
    capacity = measure_capacity("coarse-grained", scale, seed, CORES_PER_SERVER)
    results: Dict[str, OverloadCell] = {}
    for policy in POLICIES:
        for load in LOADS:
            cell = _measure_cell(
                policy, load, capacity, scale, seed, artifacts=artifacts
            )
            results[cell.key] = cell
    return results


def interactive_slo(results: Mapping[str, OverloadCell], policy: str) -> float:
    """Flash-crowd SLO attainment of the interactive tenant under *policy*
    (0.0 when not one of its operations completed: none met the SLO)."""
    return results[cell_key(policy, "flash")].interactive_slo_attainment or 0.0


def p99_ratio(results: Mapping[str, OverloadCell], policy: str) -> float:
    """Flash-crowd over steady-state accepted-op p99 of *policy*."""
    return (
        results[cell_key(policy, "flash")].accepted_p99_s
        / results[cell_key(policy, "steady")].accepted_p99_s
    )


CLAIMS = (
    # Admission contains the 5x flash crowd: accepted-op p99 stays within
    # 3x of the same policy's steady state ...
    Claim("admission_contains_flash_crowd",
          lambda r: p99_ratio(r, "admission"), "<=", 3.0),
    # ... goodput stays above 70% of closed-loop capacity ...
    Claim("admission_keeps_flash_goodput",
          lambda r: r["admission/flash"].goodput_fraction, ">=", 0.70),
    # ... and the interactive tenant keeps its SLO.
    Claim("admission_keeps_interactive_slo",
          lambda r: interactive_slo(r, "admission"), ">=", 0.95),
    # The flood is the tenant being bounced, not the interactive one.
    Claim("admission_bounces_the_flood",
          lambda r: r["admission/flash"].flood_rejected, ">", 0),
    # The uncontrolled baseline must visibly collapse: p99 inflates by an
    # order of magnitude and the interactive tenant's SLO with it ...
    Claim("uncontrolled_collapses", lambda r: p99_ratio(r, "none"), ">=", 10.0),
    Claim("uncontrolled_loses_interactive_slo",
          lambda r: interactive_slo(r, "none"), "<", 0.5),
    # ... and it bounces nothing: no policy, no rejections.
    Claim("uncontrolled_rejects_nothing",
          lambda r: sum(c.rejected_ops for c in r.values() if c.policy == "none"),
          "==", 0),
)


def print_figure(results: Dict[str, OverloadCell]) -> None:
    """One table per policy, one row per offered-load level."""
    for policy in POLICIES:
        rows = {}
        for load in LOADS:
            cell = results[cell_key(policy, load)]
            attainment = cell.interactive_slo_attainment
            rows[f"{load} ({cell.load_multiple:g}x)"] = [
                f"{cell.offered_ops}",
                format_rate(cell.goodput_ops_s),
                f"{cell.goodput_fraction:.0%}",
                f"{cell.rejected_ops}",
                f"{cell.accepted_p99_s * 1e6:.0f}us",
                f"{attainment:.2f}" if attainment is not None else "-",
            ]
        capacity = next(iter(results.values())).capacity_ops_s
        print_table(
            f"Extension - open-loop overload, policy={policy} "
            f"(coarse-grained, capacity {format_rate(capacity)}/s)",
            ["offered", "goodput", "of cap", "rejected", "p99", "SLO"],
            rows,
            col_header="load",
        )
    for policy in POLICIES:
        print(
            f"  {policy}: flash p99 = {p99_ratio(results, policy):.1f}x steady, "
            f"goodput {results[cell_key(policy, 'flash')].goodput_fraction:.0%} of capacity"
        )
