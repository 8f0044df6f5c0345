"""Extension: flash-crowd overload — admission control vs. collapse.

The paper's closed-loop clients can never push a NAM cluster past
saturation: offered load is bounded by completed load by construction.
This harness opens the loop (docs/overload.md): a two-tenant mix — a
rate-limited *interactive* tenant carrying a p99 SLO and an abusive
*flood* tenant — offers Poisson arrivals against the coarse-grained
design, sweeping **offered load** (steady / surge / 5x flash crowd)
against **admission policy** (none / token-bucket + bounded queues +
bulkhead worker pools).

Per cell: offered/accepted/rejected/shed counts, goodput as a fraction
of the measured closed-loop capacity, accepted-op p99, and the
interactive tenant's SLO attainment. The headline (the ISSUE's
acceptance bar): under a 5x flash crowd the admission-controlled system
keeps accepted-op p99 within ``P99_RATIO_CEILING`` of its own steady
state and goodput above ``GOODPUT_FLOOR`` of capacity, while the
uncontrolled baseline's p99 inflates past ``COLLAPSE_RATIO_FLOOR`` and
the interactive tenant's SLO collapses with it.

Doubles as the overload regression gate: ``--check BASELINE`` compares
goodput per cell against a committed baseline JSON (tolerance
``TOLERANCE``) and re-asserts the headline bars in absolute terms.

Run with ``python -m repro.experiments.ext_overload``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import (
    AdmissionConfig,
    ClusterConfig,
    CpuConfig,
    ObservabilityConfig,
)
from repro.experiments.common import (
    build_index,
    format_rate,
    print_table,
    write_obs_artifacts,
)
from repro.experiments.scale import ExperimentScale
from repro.nam.cluster import Cluster
from repro.workloads import (
    ArrivalProcess,
    DegradationConfig,
    OpenLoopRunner,
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
)

__all__ = [
    "OverloadCell",
    "POLICIES",
    "LOADS",
    "run",
    "measure_capacity",
    "results_to_json",
    "check_against_baseline",
    "print_figure",
    "main",
    "P99_RATIO_CEILING",
    "GOODPUT_FLOOR",
    "COLLAPSE_RATIO_FLOOR",
    "SLO_ATTAINMENT_FLOOR",
    "TOLERANCE",
]

#: Under the flash crowd, the admission-controlled accepted-op p99 must
#: stay within this multiple of the same policy's steady-state p99.
P99_RATIO_CEILING = 3.0
#: ... while goodput stays above this fraction of closed-loop capacity.
GOODPUT_FLOOR = 0.70
#: ... and the interactive tenant keeps at least this SLO attainment.
SLO_ATTAINMENT_FLOOR = 0.95
#: The uncontrolled baseline must visibly collapse: its flash-crowd p99
#: inflates past this multiple of its own steady state.
COLLAPSE_RATIO_FLOOR = 10.0
#: Allowed per-cell goodput regression vs the committed baseline.
TOLERANCE = 0.20

#: Offered-load levels as multiples of measured closed-loop capacity.
LOADS: Dict[str, float] = {"steady": 0.6, "surge": 2.0, "flash": 5.0}
POLICIES: Tuple[str, ...] = ("none", "admission")

#: Interactive tenant's p99 SLO target (absolute; the steady-state p99
#: at these scales sits well under it, the uncontrolled flash crowd far
#: above it).
INTERACTIVE_SLO_P99_S = 100e-6
#: Tenant rates as fractions of capacity: interactive offers a constant
#: quarter of capacity; flood's base rate is scaled by the load level's
#: burst multiplier.
INTERACTIVE_FRACTION = 0.25
FLOOD_FRACTION = 0.35
#: Admission policy: flood's aggregate token-bucket allowance (fraction
#: of capacity, split evenly across memory servers).
FLOOD_RATE_LIMIT_FRACTION = 0.5

#: Two RPC workers per memory server: one bulkheaded for the flood
#: tenant under the admission policy, one left in the shared pool.
CORES_PER_SERVER = 2
PROBE_CLIENTS = 64

DEFAULT_SCALE = ExperimentScale(
    num_keys=8_000,
    num_memory_servers=2,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.004,
)

#: Tiny grid for the CI smoke (overload) job.
SMOKE = ExperimentScale(
    num_keys=4_000,
    num_memory_servers=2,
    memory_servers_per_machine=2,
    warmup_s=0.0005,
    measure_s=0.002,
)

SMOKE_LOADS: Tuple[str, ...] = ("steady", "flash")


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
    shed_ops: int
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
            tenant_burst_ops=32.0,
            bulkhead_workers={"flood": 1},
        )
    return ClusterConfig(
        num_memory_servers=scale.num_memory_servers,
        memory_servers_per_machine=min(
            scale.memory_servers_per_machine, scale.num_memory_servers
        ),
        seed=seed,
        cpu=CpuConfig(cores_per_server=CORES_PER_SERVER),
        admission=admission,
        observability=ObservabilityConfig(enabled=True),
    )


def measure_capacity(scale: ExperimentScale, seed: int) -> float:
    """Closed-loop saturation throughput of the overload cluster shape.

    A closed loop with enough clients drives every RPC worker to 100%
    utilization without unbounded queueing — the paper's own measurement
    mode — so its throughput is the service capacity the open-loop cells
    are calibrated against.
    """
    dataset = generate_dataset(scale.num_keys, scale.gap)
    config = ClusterConfig(
        num_memory_servers=scale.num_memory_servers,
        memory_servers_per_machine=min(
            scale.memory_servers_per_machine, scale.num_memory_servers
        ),
        seed=seed,
        cpu=CpuConfig(cores_per_server=CORES_PER_SERVER),
    )
    cluster = Cluster(config)
    index = build_index(cluster, "coarse-grained", dataset)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index,
        WorkloadSpec(name="capacity-probe", point_fraction=1.0),
        num_clients=PROBE_CLIENTS,
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    return result.throughput


def _tenants(capacity: float, load_multiple: float) -> List[TenantSpec]:
    interactive_rate = INTERACTIVE_FRACTION * capacity
    flood_rate = FLOOD_FRACTION * capacity
    flood_multiplier = max(
        1.0, (load_multiple * capacity - interactive_rate) / flood_rate
    )
    if flood_multiplier > 1.0:
        # The burst window covers the whole run: a sustained flash crowd,
        # the regime where open vs closed loop actually differ.
        flood_arrivals = ArrivalProcess(
            rate_ops_per_s=flood_rate,
            burst_multiplier=flood_multiplier,
            burst_start_s=0.0,
            burst_duration_s=1.0,
        )
    else:
        flood_arrivals = ArrivalProcess(rate_ops_per_s=flood_rate)
    return [
        TenantSpec(
            name="interactive",
            workload=WorkloadSpec(name="reads", point_fraction=1.0),
            arrivals=ArrivalProcess(rate_ops_per_s=interactive_rate),
            slo_p99_s=INTERACTIVE_SLO_P99_S,
            degradation=DegradationConfig(),
            max_op_retries=2,
            sessions=16,
        ),
        TenantSpec(
            name="flood",
            # 5% inserts keep the mutating-RPC admission path hot.
            workload=WorkloadSpec(
                name="mixed", point_fraction=0.95, insert_fraction=0.05
            ),
            arrivals=flood_arrivals,
            # The flash crowd does not cooperate: no breaker, no budget —
            # the server-side policy alone must contain it.
            degradation=None,
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
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(_cluster_config(policy, capacity, scale, seed))
    index = build_index(cluster, "coarse-grained", dataset)
    runner = OpenLoopRunner(cluster, dataset)
    load_multiple = LOADS[load]
    result = runner.run(
        index,
        _tenants(capacity, load_multiple),
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    if artifacts is not None:
        write_obs_artifacts(
            result.observability, artifacts, f"overload-{policy}-{load}"
        )
    all_latencies = [
        latency
        for outcome in result.tenants.values()
        for latency in outcome.latencies
    ]
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
        shed_ops=result.shed_ops,
        errored_ops=result.errored_ops,
        goodput_ops_s=result.goodput,
        accepted_p99_s=(
            float(np.percentile(all_latencies, 99)) if all_latencies else 0.0
        ),
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
    loads: Optional[Tuple[str, ...]] = None,
    artifacts: Optional[Path] = None,
) -> Dict[str, OverloadCell]:
    """Measure the policy x offered-load grid; keyed by ``policy/load``."""
    seed = scale.seed if seed is None else seed
    if loads is None:
        loads = tuple(LOADS)
    capacity = measure_capacity(scale, seed)
    results: Dict[str, OverloadCell] = {}
    for policy in POLICIES:
        for load in loads:
            cell = _measure_cell(
                policy, load, capacity, scale, seed, artifacts=artifacts
            )
            results[cell.key] = cell
    return results


def _headline(results: Dict[str, OverloadCell]) -> Dict[str, Dict[str, float]]:
    """Flash-over-steady ratios per policy (the collapse-vs-contained story)."""
    headline: Dict[str, Dict[str, float]] = {}
    for policy in POLICIES:
        steady = results.get(cell_key(policy, "steady"))
        flash = results.get(cell_key(policy, "flash"))
        if steady is None or flash is None:
            continue
        if steady.accepted_p99_s <= 0:
            continue
        entry = {
            "p99_ratio": flash.accepted_p99_s / steady.accepted_p99_s,
            "goodput_fraction": flash.goodput_fraction,
        }
        if flash.interactive_slo_attainment is not None:
            entry["interactive_slo_attainment"] = (
                flash.interactive_slo_attainment
            )
        headline[policy] = entry
    return headline


def results_to_json(results: Dict[str, OverloadCell]) -> Dict:
    """A JSON-serializable snapshot (the BENCH_overload.json payload)."""
    capacity = next(iter(results.values())).capacity_ops_s if results else 0.0
    return {
        "capacity_ops_s": capacity,
        "cells": {key: asdict(cell) for key, cell in results.items()},
        "headline": _headline(results),
    }


def check_against_baseline(
    results: Dict[str, OverloadCell], baseline: Dict
) -> List[str]:
    """Regression failures of *results* vs a committed *baseline* payload.

    Every cell's goodput must stay above ``(1 - TOLERANCE) *`` baseline,
    and the headline bars are re-asserted in absolute terms: admission
    contains the flash crowd (p99 ratio, goodput floor, interactive SLO)
    while the uncontrolled baseline demonstrably collapses.
    """
    failures: List[str] = []
    base_cells = baseline.get("cells", {})
    for key, cell in results.items():
        base = base_cells.get(key)
        if base is None:
            failures.append(f"{key}: missing from baseline")
            continue
        reference = base.get("goodput_ops_s", 0.0)
        if reference > 0 and cell.goodput_ops_s < (1.0 - TOLERANCE) * reference:
            failures.append(
                f"{key}: goodput regressed {cell.goodput_ops_s:.0f} < "
                f"{(1.0 - TOLERANCE) * reference:.0f} "
                f"(baseline {reference:.0f}, tolerance {TOLERANCE:.0%})"
            )
    headline = _headline(results)
    contained = headline.get("admission")
    if contained is None:
        failures.append("admission steady/flash cells missing")
    else:
        if contained["p99_ratio"] > P99_RATIO_CEILING:
            failures.append(
                f"admission/flash: accepted p99 is {contained['p99_ratio']:.1f}x "
                f"steady state, above the {P99_RATIO_CEILING:.1f}x ceiling"
            )
        if contained["goodput_fraction"] < GOODPUT_FLOOR:
            failures.append(
                f"admission/flash: goodput is "
                f"{contained['goodput_fraction']:.0%} of capacity, below the "
                f"{GOODPUT_FLOOR:.0%} floor"
            )
        attainment = contained.get("interactive_slo_attainment")
        if attainment is not None and attainment < SLO_ATTAINMENT_FLOOR:
            failures.append(
                f"admission/flash: interactive SLO attainment {attainment:.2f} "
                f"below the {SLO_ATTAINMENT_FLOOR:.2f} floor"
            )
    collapse = headline.get("none")
    if collapse is None:
        failures.append("uncontrolled steady/flash cells missing")
    elif collapse["p99_ratio"] < COLLAPSE_RATIO_FLOOR:
        failures.append(
            f"none/flash: baseline p99 only inflated "
            f"{collapse['p99_ratio']:.1f}x; the uncontrolled collapse the "
            f"experiment demonstrates needs >= {COLLAPSE_RATIO_FLOOR:.0f}x"
        )
    return failures


def print_figure(results: Dict[str, OverloadCell]) -> None:
    """One table per policy, one row per offered-load level."""
    loads = [
        load for load in LOADS
        if any(cell.load == load for cell in results.values())
    ]
    for policy in POLICIES:
        rows = {}
        for load in loads:
            cell = results.get(cell_key(policy, load))
            if cell is None:
                continue
            attainment = cell.interactive_slo_attainment
            rows[f"{load} ({cell.load_multiple:g}x)"] = [
                f"{cell.offered_ops}",
                format_rate(cell.goodput_ops_s),
                f"{cell.goodput_fraction:.0%}",
                f"{cell.rejected_ops}",
                f"{cell.shed_ops}",
                f"{cell.accepted_p99_s * 1e6:.0f}us",
                f"{attainment:.2f}" if attainment is not None else "-",
            ]
        capacity = next(iter(results.values())).capacity_ops_s
        print_table(
            f"Extension - open-loop overload, policy={policy} "
            f"(coarse-grained, capacity {format_rate(capacity)}/s)",
            ["offered", "goodput", "of cap", "rejected", "shed",
             "p99", "SLO"],
            rows,
            col_header="load",
        )
    headline = _headline(results)
    for policy, entry in headline.items():
        print(
            f"  {policy}: flash p99 = {entry['p99_ratio']:.1f}x steady, "
            f"goodput {entry['goodput_fraction']:.0%} of capacity"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="open-loop flash-crowd sweep + overload regression gate"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI grid (faster)"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write results to this file"
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="compare against this baseline JSON; exit non-zero on regression",
    )
    parser.add_argument(
        "--update-baseline",
        type=Path,
        default=None,
        help="write this run's numbers as the new baseline",
    )
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=None,
        help="write per-cell flight bundles + Chrome traces into this dir"
        " (for CI failure uploads)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        results = run(
            scale=SMOKE, seed=args.seed, loads=SMOKE_LOADS,
            artifacts=args.artifacts,
        )
    else:
        results = run(seed=args.seed, artifacts=args.artifacts)
    print_figure(results)
    payload = results_to_json(results)
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.update_baseline is not None:
        args.update_baseline.parent.mkdir(parents=True, exist_ok=True)
        args.update_baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote baseline {args.update_baseline}")
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_against_baseline(results, baseline)
        for failure in failures:
            print(f"OVERLOAD REGRESSION: {failure}")
        if failures:
            return 1
        headline = _headline(results)
        contained = headline.get("admission", {})
        print(
            f"overload check OK vs {args.check} "
            f"(admission flash p99 {contained.get('p99_ratio', 0):.1f}x steady, "
            f"goodput {contained.get('goodput_fraction', 0):.0%} of capacity)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
