"""Figure 9: network utilization for workloads A and B (skewed data).

Reports the aggregate traffic through the memory servers' NIC ports
(GB/s over the measurement window) for each design and workload, plus the
hot server's share — the coarse-grained scheme funnels its traffic through
one port under skew while fine-grained/hybrid spread the leaf level over
all ports (Section 6.1, "Discussion of Network Utilization"). A view of
the shared sweep's skewed half (:mod:`repro.experiments.fig07_08_throughput`).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.experiments.common import level, print_panels, ratio, summarise
from repro.experiments.gate import Claim
from repro.experiments.fig07_08_throughput import PLACEMENTS, run

__all__ = ["run", "print_figure", "CLAIMS"]

#: Judged at the sweep's second client count: the network shape needs
#: ports that are busy but not yet saturated.
CLAIMS = (
    # Under skew the CG range traffic funnels through one server's port
    # while FG spreads the leaf level over all ports.
    Claim("fig09_skewed_cg_range_traffic_funnels_through_one_server",
          level("hot_server_share", "sweep/skewed/coarse-grained/[-1]/[1]"), ">", 0.6),
    Claim("fig09_fg_range_traffic_spreads_over_all_servers",
          level("hot_server_share", "sweep/skewed/fine-grained/[-1]/[1]"), "<", 0.45),
    # FG is less network-efficient for point queries (whole pages per
    # level vs. a key+value RPC), under either placement.
    Claim("fig09_fg_moves_more_bytes_per_point_query",
          lambda r: min(
              ratio("network_bytes_per_op", f"sweep/{placement}/fine-grained/A/[1]",
                    f"sweep/{placement}/coarse-grained/A/[1]")(r)
              for placement in PLACEMENTS), ">", 5.0),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    skewed = {key: cell for key, cell in summarise(results).items() if key[0] == "skewed"}
    print_panels(
        skewed,
        lambda _placement, workload:
            f"Figure 9 - workload {workload}: memory-server traffic "
            "(GB/s / busiest server's share)",
        row=1, col=3,
        fmt=lambda cell: f"{cell.network_gb_per_s:.2f}/{cell.hot_server_share * 100:.0f}%",
    )
