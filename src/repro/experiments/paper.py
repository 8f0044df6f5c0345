"""The reproduction as one gated experiment: Figures 3-15 and the ablations.

``python -m repro gate paper`` runs every distinct grid of the paper's
evaluation once — the A/B sweep under both placements that Figures 7, 8,
9, 13 and 14 share, then Figures 3, 10, 11, 12, 15, Appendix A.4 and the
head-node, contention, SRQ, request-skew and page-size studies —
summarises each cell (:class:`repro.experiments.common.Cell`) under a key
such as ``sweep/skewed/fine-grained/A/120`` and judges the run against
``BENCH_paper.json``: every number to the digit, and every who-wins shape
of EXPERIMENTS.md as a named claim. The claims live beside the grid they
judge, in the figure modules; :data:`CLAIMS` is their concatenation. They
address cells by position (:func:`repro.experiments.common.pick`), so the
same claims are judged at the gate's scale and at the tier-1 test's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Mapping, Optional

from repro.experiments import (
    a4_caching,
    ablation_head_nodes,
    ablation_insert_contention,
    ablation_srq,
    ext_page_size,
    ext_request_skew,
    fig03_analytical,
    fig07_08_throughput,
    fig09_network,
    fig10_datasize,
    fig11_servers,
    fig12_inserts,
    fig13_14_latency,
    fig15_colocation,
)
from repro.experiments.common import Cell, cells_of, summarise
from repro.experiments.scale import SMALL, ExperimentScale

__all__ = ["run", "print_figure", "CLAIMS", "WALL_FIELDS", "DEFAULT_SCALE", "GRIDS"]

DEFAULT_SCALE = SMALL

#: Everything here is simulated: deterministic per seed, compared exactly.
WALL_FIELDS = ()

#: ``(grid, its modules, what its gate grid changes of DEFAULT_SCALE,
#: load)``. The first module runs the grid; each prints its view of it and
#: holds the claims on that view. At the gate each grid runs at the scale
#: its claims were written against — a figure that needs a selectivity, a
#: data size or a client count ``SMALL`` does not have says so here; any
#: other scale handed to :func:`run` is used for every grid as it is.
GRIDS = (
    ("sweep", (fig07_08_throughput, fig09_network, fig13_14_latency), {}, {}),
    ("fig03", (fig03_analytical,), {}, {}),
    # The paper's highest selectivity and an order of magnitude between
    # data sizes: the range-vs-size effect needs both.
    ("fig10", (fig10_datasize,), dict(selectivities=(0.1,), data_sizes=(2_000, 16_000)), {}),
    # 24 cells at 120 clients: a smaller tree and window keep them cheap.
    ("fig11", (fig11_servers,), dict(num_keys=6_000, measure_s=0.0025), {}),
    ("fig12", (fig12_inserts,), {}, {}),
    ("fig15", (fig15_colocation,), {}, {}),
    ("a4", (a4_caching,), {}, {}),
    # Prefetching needs scans that span several leaf groups.
    ("heads", (ablation_head_nodes,), dict(num_keys=20_000), {}),
    ("contention", (ablation_insert_contention,), {}, dict(readers=60, writers=30)),
    # Per-client receive queues only collapse once connections pile up.
    ("srq", (ablation_srq,), dict(clients=(10, 120, 240), measure_s=0.0025), {}),
    ("reqskew", (ext_request_skew,), {}, dict(num_clients=60)),
    ("pagesize", (ext_page_size,), {}, {}),
)

CLAIMS = tuple(
    claim for _grid, modules, _scale, _load in GRIDS for module in modules
    for claim in module.CLAIMS
)


def run(scale: ExperimentScale = DEFAULT_SCALE, seed: Optional[int] = None) -> Dict[str, Cell]:
    """Run every grid once; ``{"grid/key/parts": Cell}``."""
    results: Dict[str, Cell] = {}
    for grid, modules, gate_scale, load in GRIDS:
        grid_scale = replace(scale, **gate_scale) if scale == DEFAULT_SCALE else scale
        if seed is not None:
            grid_scale = replace(grid_scale, seed=seed)
        for key, cell in summarise(modules[0].run(scale=grid_scale, **load)).items():
            results["/".join((grid, *key))] = cell
    return results


def print_figure(results: Mapping[str, Any]) -> None:
    """Print every figure, each from its module's own ``print_figure``."""
    for grid, modules, _scale, _load in GRIDS:
        for module in modules:
            module.print_figure(cells_of(results, grid))
