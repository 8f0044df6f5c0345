"""Ablation: spin-lock contention under write hotspots (Section 6.3).

The paper explains Figure 12's high-load behaviour by lock waiting *on the
memory servers*: in the two-sided designs, an RPC worker that hits a locked
node busy-waits on its core and "cannot accept lookups/inserts from other
clients", whereas the fine-grained design's clients spin *remotely* and
leave the memory servers free to serve everyone else.

This ablation separates the two effects with dedicated client populations:
one population of pure point-query readers, one population of *append*
inserters (YCSB-style monotonic keys — every writer contends on the same
rightmost leaf). Per design it reports:

* reader throughput — the collateral damage of writer spinning;
* insert throughput — the cost of holding a contended lock across network
  round trips (the one-sided design's weakness);
* the hottest memory server's CPU utilization — where the spinning burns.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.experiments.common import (
    DESIGNS, build_index, cluster_config, format_rate, level, print_panels, ratio, summarise,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.nam.cluster import Cluster
from repro.workloads import RunResult, WorkloadRunner, WorkloadSpec, generate_dataset, workload_a

__all__ = ["run", "print_figure", "CLAIMS", "append_only_workload"]


def append_only_workload() -> WorkloadSpec:
    """100% rightmost-leaf (append) inserts."""
    return WorkloadSpec(name="append", insert_fraction=1.0, insert_pattern="append")


def run(
    scale: ExperimentScale = DEFAULT, readers: int = 80, writers: int = 40
) -> Dict[str, RunResult]:
    """Run the two populations against each design; results keyed by design."""
    results: Dict[str, RunResult] = {}
    for design in DESIGNS:
        dataset = generate_dataset(scale.num_keys, scale.gap)
        cluster = Cluster(cluster_config(scale))
        index = build_index(cluster, design, dataset)
        results[design] = WorkloadRunner(cluster, dataset).run(
            index,
            populations=[(workload_a(), readers), (append_only_workload(), writers)],
            warmup_s=scale.warmup_s,
            measure_s=scale.measure_s,
            seed=scale.seed,
        )
    return results


CLAIMS = (
    # CG's spinning RPC workers saturate the hot server's CPU...
    Claim("contention_cg_spinning_saturates_the_hot_server",
          level("hot_cpu", "contention/coarse-grained"), ">", 0.9),
    # ...while FG's clients spin remotely, leaving server CPUs idle.
    Claim("contention_fg_leaves_server_cpus_idle",
          level("hot_cpu", "contention/fine-grained"), "==", 0.0),
    # The flip side (consistent with later literature): holding a contended
    # lock across round trips makes one-sided hotspot inserts far slower
    # than server-local ones.
    Claim("contention_cg_hotspot_inserts_outrun_fg",
          ratio("insert_throughput", "contention/coarse-grained", "contention/fine-grained"),
          ">", 2.0),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda: "Ablation (Sec 6.3) - point readers + half as many append-writers: "
        "where does spinning hurt?",
        row=0, col=None, col_header="",
        fmt=lambda cell: {
            "reads/s": format_rate(cell.point_throughput),
            "inserts/s": format_rate(cell.insert_throughput),
            "hot CPU": f"{cell.hot_cpu * 100:.0f}%",
        },
    )
