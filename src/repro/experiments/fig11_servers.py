"""Figure 11 (Exp. 2b): varying the number of memory servers.

120 clients, point queries and sel=0.01 range queries, uniform and skewed
placement, for the coarse-grained and fine-grained designs (the paper
omits hybrid here — it tracks CG for points and FG for ranges).

Expected shapes: fine-grained benefits from every added server in all four
panels; coarse-grained scales only without skew (Section 6.2).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.experiments.common import format_rate, print_panels, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.experiments.fig07_08_throughput import PLACEMENTS
from repro.workloads import RunResult, workload_a, workload_b

__all__ = ["run", "print_figure", "CLAIMS", "DESIGNS_FIG11"]

DESIGNS_FIG11 = ("coarse-grained", "fine-grained")

def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 120
) -> Dict[Tuple[str, str, str, int], RunResult]:
    """Run the grid; results keyed ``(design, workload name, placement, num_servers)``."""
    selectivity = scale.selectivities[min(1, len(scale.selectivities) - 1)]
    return {
        (design, spec.name, placement, servers): run_cell(
            design, spec, num_clients, scale, skewed=skewed, num_memory_servers=servers
        )
        for placement, skewed in PLACEMENTS.items()
        for spec in (workload_a(), workload_b(selectivity))
        for design in DESIGNS_FIG11
        for servers in scale.servers_sweep
    }


def _most_over_fewest_servers(cells: str):
    return ratio("throughput", f"fig11/{cells}/[-1]", f"fig11/{cells}/[0]")


CLAIMS = (
    # FG benefits from every added server even under skew; CG cannot (the
    # hot server pins it) and scales only without skew.
    Claim("fig11_fg_ranges_scale_with_servers_under_skew",
          _most_over_fewest_servers("fine-grained/[-1]/skewed"), ">", 1.4),
    Claim("fig11_skew_pins_cg_ranges",
          _most_over_fewest_servers("coarse-grained/[-1]/skewed"), "<", 1.2),
    Claim("fig11_cg_ranges_scale_without_skew",
          _most_over_fewest_servers("coarse-grained/[-1]/uniform"), ">", 1.2),
    # Sub-linear (the single root page's home port is a hot spot at our
    # shallow tree heights) but clearly positive scaling.
    Claim("fig11_fg_points_gain_from_servers_under_skew",
          _most_over_fewest_servers("fine-grained/A/skewed"), ">", 1.2),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda workload, placement: f"Figure 11 - workload {workload}, {placement}: "
        "throughput vs. memory servers",
        row=0, col=3, fmt=lambda cell: format_rate(cell.throughput), col_header="servers",
    )
