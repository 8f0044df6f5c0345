"""Figure 12 (Exp. 3): mixed workloads with inserts.

Workload C (5% inserts) and workload D (50% inserts), uniform data, all
three designs, vs. client count. The paper's finding: hybrid is the most
robust and beats coarse-grained throughout; under very high load the
fine-grained design wins because its *remote* spinlocks let other clients
progress, while CG/hybrid RPC workers busy-wait on contended node locks
and stop serving other requests (Section 6.3).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.experiments.common import (
    DESIGNS, format_rate, level, print_panels, ratio, run_cell, summarise,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_c, workload_d

__all__ = ["run", "print_figure", "CLAIMS"]

_INSERT_PERCENT = {"C": 5, "D": 50}


def run(scale: ExperimentScale = DEFAULT) -> Dict[Tuple[str, str, int], RunResult]:
    """Run the grid; results keyed ``(design, workload name, num_clients)``."""
    return {
        (design, spec.name, num_clients): run_cell(design, spec, num_clients, scale)
        for spec in (workload_c(), workload_d())
        for design in DESIGNS
        for num_clients in scale.clients
    }


CLAIMS = (
    # The hybrid is the most robust mixed-workload design and clearly
    # beats coarse-grained at load, for both insert rates.
    Claim("fig12_hybrid_beats_cg_at_high_load",
          lambda r: min(
              ratio("throughput", f"fig12/hybrid/{workload}/[-1]",
                    f"fig12/coarse-grained/{workload}/[-1]")(r)
              for workload in _INSERT_PERCENT), ">", 1.0),
    # Fine-grained keeps scaling with load (its clients spin remotely
    # instead of occupying server workers).
    Claim("fig12_fg_inserts_keep_scaling_with_load",
          ratio("throughput", "fig12/fine-grained/D/[-1]", "fig12/fine-grained/D/[0]"),
          ">", 1.5),
    # Inserts complete, in well under a millisecond, on every design.
    Claim("fig12_every_design_completes_inserts",
          lambda r: min(level("insert_throughput", f"fig12/{design}/D/[1]")(r)
                        for design in DESIGNS), ">", 0.0),
    Claim("fig12_insert_latency_stays_below_a_millisecond",
          lambda r: max(level("insert_latency_s", f"fig12/{design}/D/[1]")(r)
                        for design in DESIGNS), "<", 1e-3),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda workload: f"Figure 12 - workload {workload} "
        f"({_INSERT_PERCENT[workload]}% inserts, uniform): throughput (ops/s)",
        row=0, col=2, fmt=lambda cell: format_rate(cell.throughput),
    )
