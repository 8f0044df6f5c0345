"""Ablation: head-node prefetching for range scans (Section 4.3).

Runs the fine-grained design's range workload with head nodes enabled vs.
disabled, at *light* load: prefetching is a latency optimization ("masking
network transfer", as the paper puts it) — it shortens scans while ports
are idle, and is throughput-neutral once the NICs saturate (the extra
head-page reads then just cost bandwidth). With head nodes, a scan
discovers upcoming leaf pointers early and issues the READs in parallel
("selectively signaled"), masking the per-leaf round trip; without them
the leaf chain is pointer-chased serially. The benefit shows up in scan latency (and throughput at equal
client counts), at the price of one extra page read per leaf group.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.config import TreeConfig
from repro.experiments.common import format_rate, print_panels, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_b

__all__ = ["run", "print_figure", "CLAIMS"]

#: Prefetch only matters once a scan spans several leaf groups, so the
#: ablation uses higher selectivities than the throughput figures.
SELECTIVITIES = (0.01, 0.05, 0.1)

#: Cell mode -> ``TreeConfig`` (a head-node interval of 0 builds none).
MODES = {"no head nodes": TreeConfig(head_node_interval=0), "with head nodes": TreeConfig()}


def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 4
) -> Dict[Tuple[float, str], RunResult]:
    """Run the grid; results keyed ``(selectivity, mode)``."""
    return {
        (selectivity, mode): run_cell(
            "fine-grained", workload_b(selectivity), num_clients, scale, tree=tree
        )
        for selectivity in SELECTIVITIES
        for mode, tree in MODES.items()
    }


def _scan_latency_with_over_without(selectivity: str):
    return ratio("range_latency_s", f"heads/{selectivity}/with head nodes",
                 f"heads/{selectivity}/no head nodes")


CLAIMS = (
    # At the largest scan size, prefetching must cut the scan latency
    # noticeably (the paper's point: masking per-leaf round trips).
    Claim("heads_cut_long_scan_latency", _scan_latency_with_over_without("[-1]"), "<", 0.8),
    # At the smallest scan size the head read is pure overhead — the
    # trade-off the paper's epoch-maintained heads accept.
    Claim("heads_overhead_on_short_scans_is_bounded",
          _scan_latency_with_over_without("[0]"), "<", 3.0),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda: "Ablation (Sec 4.3) - fine-grained range scans, light load: "
        "throughput / mean latency by selectivity",
        row=1, col=0,
        fmt=lambda cell: f"{format_rate(cell.throughput)}/{cell.range_latency_s * 1e6:.0f}us",
        col_header="",
    )
