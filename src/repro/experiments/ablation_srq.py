"""Ablation: shared receive queues vs. per-client receive queues.

Section 3.2: "to better scale-out with the number of clients, we are
using shared receive queues (SRQs) to handle the RDMA RECEIVE operations
on the memory servers. SRQs allow all incoming clients to be mapped to a
fixed number of receive queues, instead of using one receive queue per
client."

This ablation runs the coarse-grained design's point-query workload with
SRQs on (the paper's choice) and off (per-client receive queues: every
RPC pays a poll across all connected queue pairs) over growing client
counts. Expected shape: identical at few clients, and a widening gap as
connections accumulate.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.config import CpuConfig
from repro.experiments.common import format_rate, print_panels, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_a

__all__ = ["run", "print_figure", "CLAIMS"]

#: Receive-queue mode -> ``CpuConfig.use_srq``.
MODES = {"shared receive queues": True, "per-client queues": False}


def run(scale: ExperimentScale = DEFAULT) -> Dict[Tuple[str, int], RunResult]:
    """Run the grid; results keyed ``(receive-queue mode, num_clients)``."""
    return {
        (mode, num_clients): run_cell(
            "coarse-grained", workload_a(), num_clients, scale, cpu=CpuConfig(use_srq=use_srq)
        )
        for mode, use_srq in MODES.items()
        for num_clients in scale.clients
    }


def _throughput(over: str, under: str):
    return ratio("throughput", f"srq/{over}", f"srq/{under}")


CLAIMS = (
    # At few clients the choice barely matters...
    Claim("srq_choice_barely_matters_at_few_clients",
          _throughput("per-client queues/[0]", "shared receive queues/[0]"), ">", 0.9),
    # ...at many clients per-client receive queues collapse (the polling
    # cost grows with every connection) while SRQs hold steady — the
    # paper's reason for using SRQs.
    Claim("srq_holds_where_per_client_queues_collapse",
          _throughput("shared receive queues/[-1]", "per-client queues/[-1]"), ">", 1.5),
    Claim("srq_per_client_queues_lose_throughput_as_connections_grow",
          _throughput("per-client queues/[-1]", "per-client queues/[1]"), "<", 1.0),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda: "Ablation (Sec 3.2) - coarse-grained point queries: SRQ vs. "
        "per-client receive queues",
        row=0, col=1, fmt=lambda cell: format_rate(cell.throughput),
    )
