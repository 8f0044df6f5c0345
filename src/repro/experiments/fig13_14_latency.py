"""Figures 13 & 14 (Appendix A.2): latency for workloads A and B.

Same grid as Figures 7/8 (:mod:`repro.experiments.fig07_08_throughput`) but
reporting mean operation latency. The paper's pattern: the coarse-grained
RPC design has the lowest latency under light load (fewest round trips)
but loses to fine-grained/hybrid once the memory servers' CPUs queue up.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.experiments.common import pick, print_panels, ratio, summarise
from repro.experiments.gate import Claim
from repro.experiments.fig07_08_throughput import run

__all__ = ["run", "print_figure", "CLAIMS"]

_FIGURE = {"skewed": "Figure 13 (skewed data)", "uniform": "Figure 14 (uniform data)"}


def _point_latency(over: str, under: str):
    return ratio("point_latency_s", f"sweep/{over}", f"sweep/{under}")


def _range_over_point(design: str):
    return lambda r: (
        pick(r, f"sweep/uniform/{design}/[-1]/[0]").range_latency_s
        / pick(r, f"sweep/uniform/{design}/A/[0]").point_latency_s
    )


CLAIMS = (
    # Fig 13: CG's single round trip wins at light load, but under skewed
    # high load its queueing overtakes FG's extra round trips.
    Claim("fig13_cg_latency_below_fg_at_light_load",
          _point_latency("skewed/coarse-grained/A/[0]", "skewed/fine-grained/A/[0]"), "<", 1.0),
    Claim("fig13_fg_latency_beats_cg_at_skewed_high_load",
          _point_latency("skewed/fine-grained/A/[-1]", "skewed/coarse-grained/A/[-1]"), "<", 1.0),
    # Fig 14: at light load CG (one RPC round trip) has the lowest latency,
    # FG (height many round trips) the highest.
    Claim("fig14_cg_latency_below_hybrid_at_light_load",
          _point_latency("uniform/coarse-grained/A/[0]", "uniform/hybrid/A/[0]"), "<", 1.0),
    Claim("fig14_hybrid_latency_below_fg_at_light_load",
          _point_latency("uniform/hybrid/A/[0]", "uniform/fine-grained/A/[0]"), "<", 1.0),
    # A range scan takes longer than a point lookup, on every design.
    Claim("fig14_range_latency_exceeds_point_latency",
          lambda r: min(_range_over_point(design)(r)
                        for design in ("coarse-grained", "fine-grained")), ">", 1.0),
)


def _format_latency(seconds: float) -> str:
    if not seconds:  # no completions in the window
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    return f"{seconds * 1e3:.2f}ms"


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    print_panels(
        summarise(results),
        lambda placement, workload: f"{_FIGURE[placement]} - workload {workload}: mean latency",
        row=1, col=3,
        fmt=lambda cell: _format_latency(cell.point_latency_s or cell.range_latency_s),
    )
