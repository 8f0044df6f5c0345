"""Extension: page-size sensitivity (the P knob of Table 1).

The paper fixes P = 1 KiB; this extension sweeps the page size for the
fine-grained design, where P controls a sharp trade-off:

* larger pages → higher fanout → shallower trees → *fewer* round trips
  per point lookup, but every READ moves more bytes;
* smaller pages → deeper trees → more round trips, less wasted bandwidth.

Reported per page size: the tree height, point-query and range-query
throughput, and mean latency, at a moderate client count.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.config import TreeConfig
from repro.experiments.common import (
    cluster_config, format_rate, pick, print_panels, ratio, summarise,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale, measure_window
from repro.index import FineGrainedIndex
from repro.nam.cluster import Cluster
from repro.workloads import RunResult, WorkloadRunner, generate_dataset, workload_a, workload_b

__all__ = ["run", "print_figure", "CLAIMS", "PAGE_SIZES"]

PAGE_SIZES = (256, 1024, 4096)


def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 40
) -> Dict[Tuple[str, int], Tuple[RunResult, int]]:
    """Run the grid; ``(result, tree height)`` keyed ``(workload name, page size)``."""
    results: Dict[Tuple[str, int], Tuple[RunResult, int]] = {}
    for spec in (workload_a(), workload_b(0.05)):
        for page_size in PAGE_SIZES:
            dataset = generate_dataset(scale.num_keys, scale.gap)
            cluster = Cluster(cluster_config(scale, tree=TreeConfig(page_size=page_size)))
            index = FineGrainedIndex.build(cluster, "psize", *dataset.columns())
            height = cluster.execute(index.tree_for(cluster.new_compute_server()).height())
            result = WorkloadRunner(cluster, dataset).run(
                index,
                spec,
                num_clients=num_clients,
                warmup_s=scale.warmup_s,
                measure_s=measure_window(scale, spec.selectivity if spec.range_fraction else 0),
                seed=scale.seed,
            )
            results[(spec.name, page_size)] = (result, height)
    return results


def _height_drop(smaller: int, larger: int):
    return lambda r: (
        pick(r, f"pagesize/A/[{smaller}]").tree_height
        - pick(r, f"pagesize/A/[{larger}]").tree_height
    )


CLAIMS = (
    # Bigger pages, higher fanout, shallower tree.
    Claim("pagesize_256_tree_is_deeper_than_1k", _height_drop(0, 1), ">", 0),
    Claim("pagesize_4k_tree_is_no_deeper_than_1k", _height_drop(1, 2), ">=", 0),
    # Points: a huge page moves 4 KiB per level and loses to 1 KiB, in
    # throughput and in latency (transfer x height).
    Claim("pagesize_1k_beats_4k_on_point_throughput",
          ratio("throughput", "pagesize/A/[1]", "pagesize/A/[2]"), ">", 1.0),
    Claim("pagesize_1k_beats_4k_on_point_latency",
          ratio("point_latency_s", "pagesize/A/[1]", "pagesize/A/[2]"), "<", 1.0),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda workload: f"Extension - page-size sweep, fine-grained, workload {workload}",
        row=1, col=None, col_header="page size",
        fmt=lambda cell: {
            "height": str(cell.tree_height),
            "throughput": format_rate(cell.throughput),
            "mean lat": f"{(cell.point_latency_s or cell.range_latency_s) * 1e6:.1f}us",
        },
    )
