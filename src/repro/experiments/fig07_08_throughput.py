"""Figures 7 & 8: throughput for workloads A and B vs. client count.

Figure 7 uses skewed data placement (80/12/5/3 range partitioning for the
coarse-grained and hybrid upper levels); Figure 8 uses uniform placement.
Each sub-figure is one workload: point queries and range queries at the
scale's selectivities. ``run`` is the sweep Figures 9, 13 and 14 read too:
the three designs x workloads A and B x the scale's client counts, under
both placements.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.experiments.common import DESIGNS, format_rate, print_panels, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_a, workload_b

__all__ = ["run", "print_figure", "CLAIMS", "PLACEMENTS"]

#: Placement name -> ``run_cell``'s *skewed*.
PLACEMENTS = {"skewed": True, "uniform": False}

_FIGURE = {"skewed": "Figure 7 (skewed data)", "uniform": "Figure 8 (uniform data)"}


def run(scale: ExperimentScale = DEFAULT) -> Dict[Tuple[str, str, str, int], RunResult]:
    """Run the sweep; results keyed ``(placement, design, workload name, num_clients)``."""
    return {
        (placement, design, spec.name, num_clients): run_cell(
            design, spec, num_clients, scale, skewed=skewed
        )
        for placement, skewed in PLACEMENTS.items()
        for spec in [workload_a()] + [workload_b(sel) for sel in scale.selectivities]
        for design in DESIGNS
        for num_clients in scale.clients
    }


def _throughput(over: str, under: str):
    return ratio("throughput", f"sweep/{over}", f"sweep/{under}")


CLAIMS = (
    # Fig 7a: under skew and high load, FG and hybrid beat CG on points...
    Claim("fig07_fg_beats_cg_on_skewed_points",
          _throughput("skewed/fine-grained/A/[-1]", "skewed/coarse-grained/A/[-1]"), ">", 1.0),
    Claim("fig07_hybrid_beats_cg_on_skewed_points",
          _throughput("skewed/hybrid/A/[-1]", "skewed/coarse-grained/A/[-1]"), ">", 1.0),
    # ...Fig 7c: and skewed range queries favour FG clearly.
    Claim("fig07_fg_beats_cg_on_skewed_ranges",
          _throughput("skewed/fine-grained/[-1]/[-1]", "skewed/coarse-grained/[-1]/[-1]"),
          ">", 1.3),
    # Fig 8a: CG leads under light load, hybrid under high load.
    Claim("fig08_cg_leads_at_light_load",
          _throughput("uniform/coarse-grained/A/[0]", "uniform/fine-grained/A/[0]"), ">", 1.0),
    Claim("fig08_hybrid_matches_cg_at_high_load",
          _throughput("uniform/hybrid/A/[-1]", "uniform/coarse-grained/A/[-1]"), ">=", 1.0),
    Claim("fig08_hybrid_beats_fg_at_high_load",
          _throughput("uniform/hybrid/A/[-1]", "uniform/fine-grained/A/[-1]"), ">", 1.0),
    # Tripling the clients gains CG little once the server CPUs saturate.
    Claim("fig08_cg_saturates_before_high_load",
          _throughput("uniform/coarse-grained/A/[-1]", "uniform/coarse-grained/A/[-2]"),
          "<", 1.3),
    # Fig 7 against Fig 8: data skew caps CG and leaves FG where it was.
    Claim("fig07_08_skew_caps_cg",
          _throughput("skewed/coarse-grained/A/[-1]", "uniform/coarse-grained/A/[-1]"),
          "<", 0.7),
    Claim("fig07_08_fg_is_immune_to_data_skew",
          lambda r: abs(_throughput("skewed/fine-grained/A/[-1]",
                                    "uniform/fine-grained/A/[-1]")(r) - 1.0), "<=", 0.05),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda placement, workload:
            f"{_FIGURE[placement]} - workload {workload}: throughput (ops/s)",
        row=1, col=3, fmt=lambda cell: format_rate(cell.throughput),
    )
