"""Figure 10 (Exp. 2a): varying the data size at fixed cluster size.

Uniform data, the scale's maximum client count, point queries and range
queries at the scale's highest selectivity, over increasing data sizes
(the paper: 1M/10M/100M keys and selectivity 0.1; scaled down here).
Expected shapes: point-query throughput degrades only mildly with data
size (one extra tree level), while fixed-selectivity range queries slow
roughly with the data size — more leaf bytes per query, and fine-grained
and hybrid become network-bound on them.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.experiments.common import DESIGNS, format_rate, print_panels, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_a, workload_b

__all__ = ["run", "print_figure", "CLAIMS"]

def run(scale: ExperimentScale = DEFAULT) -> Dict[Tuple[str, str, int], RunResult]:
    """Run the grid; results keyed ``(design, workload name, num_keys)``."""
    return {
        (design, spec.name, num_keys): run_cell(
            design, spec, scale.clients[-1], scale, num_keys=num_keys
        )
        for spec in (workload_a(), workload_b(scale.selectivities[-1]))
        for design in DESIGNS
        for num_keys in scale.data_sizes
    }


def _largest_over_smallest(workload: str):
    return lambda r: [
        ratio("throughput", f"fig10/{design}/{workload}/[-1]",
              f"fig10/{design}/{workload}/[0]")(r)
        for design in DESIGNS
    ]


CLAIMS = (
    Claim("fig10_point_throughput_degrades_mildly_with_data_size",
          lambda r: min(_largest_over_smallest("A")(r)), ">", 0.5),
    Claim("fig10_range_throughput_falls_with_data_size",
          lambda r: max(_largest_over_smallest("[-1]")(r)), "<", 0.7),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda workload: f"Figure 10 - workload {workload}: throughput vs. data size "
        "(highest client count, uniform)",
        row=0, col=2, fmt=lambda cell: format_rate(cell.throughput), col_header="keys",
    )
