"""Figure 3 + Table 2: the theoretical scalability analysis (Section 2.3).

Pure analytical computation — no simulation, so nothing depends on the
scale. Prints Table 2 for the paper's example parameters and the Figure 3
series (maximal range-query throughput vs. number of memory servers,
selectivity 0.001, skew amplification z=10).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.analysis import figure3_series, format_table2
from repro.experiments.common import Cell, print_panels, ratio, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale

__all__ = ["run", "print_figure", "CLAIMS"]

SERVERS = (2, 4, 8, 16, 32, 64)


def run(scale: ExperimentScale = DEFAULT) -> Dict[Tuple[str, int], Cell]:
    """The four Figure 3 series over the paper's server counts, one cell
    per point (``/`` in a legend label reads ``+`` in the key)."""
    series = figure3_series(servers=SERVERS, selectivity=0.001, z=10.0)
    return {
        (label.replace("/", "+"), servers): Cell(throughput=value)
        for label, values in series.items()
        for servers, value in zip(SERVERS, values)
    }


def _scaling(series: str):
    return ratio("throughput", f"fig03/{series}/[-1]", f"fig03/{series}/[0]")


#: FG is the only scheme whose throughput scales with the servers
#: independent of the workload; skewed CG does not scale at all.
CLAIMS = (
    Claim("fig03_fg_scales_with_servers", _scaling("fg (unif+skew)"), ">", 30),
    Claim("fig03_skewed_cg_does_not_scale", _scaling("cg_range+hash (skew)"), "<", 1.05),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print Table 2 and the Figure 3 series."""
    print(format_table2())
    print_panels(
        summarise(results),
        lambda: "Figure 3: max range-query throughput (ops/s) vs. memory servers",
        row=0, col=1, fmt=lambda cell: f"{cell.throughput:,.0f}",
        col_header="memory servers",
    )
