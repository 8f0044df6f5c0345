"""Extension: request skew (Zipfian access patterns).

The paper's headline skew experiments use *attribute-value* (data) skew;
the original YCSB instead skews the *request* distribution — a few hot
keys receive most of the accesses (Section 6: "the original YCSB only
supports a skewed access pattern of queries by using a Zipfian
distribution"). This extension runs workload A under uniform, Zipfian
(hot keys clustered at the low end of the key space) and scrambled-Zipfian
(hot keys spread) request distributions, and adds the coherent A.4
inner-node cache (``CacheConfig(depth=2)``), which thrives on request
skew: the hot traversal paths pin themselves into the client cache.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.config import CacheConfig, ObservabilityConfig
from repro.experiments.common import DESIGNS, format_rate, print_panels, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_a

__all__ = ["run", "print_figure", "CLAIMS", "DISTRIBUTIONS", "CACHED"]

DISTRIBUTIONS = ("uniform", "zipfian", "scrambled_zipfian")

#: Row label of the fine-grained design under ``CacheConfig(depth=2)``.
CACHED = "fine-grained+cache"


def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 80
) -> Dict[Tuple[str, str], RunResult]:
    """Run the grid; results keyed ``(design label, distribution)``."""
    return {
        (label, distribution): run_cell(
            "fine-grained" if label == CACHED else label,
            workload_a(distribution=distribution),
            num_clients,
            scale,
            cache=CacheConfig(depth=2 if label == CACHED else 0),
            observability=ObservabilityConfig(enabled=label == CACHED),
        )
        for label in [*DESIGNS, CACHED]
        for distribution in DISTRIBUTIONS
    }


def _throughput(over: str, under: str):
    return ratio("throughput", f"reqskew/{over}", f"reqskew/{under}")


CLAIMS = (
    # Request skew (hot keys) hurts the partitioned designs — the hot keys'
    # partition server saturates — while the fine-grained design's
    # per-page scattering absorbs it...
    Claim("reqskew_hot_keys_hurt_cg",
          _throughput("coarse-grained/zipfian", "coarse-grained/uniform"), "<", 0.7),
    Claim("reqskew_fg_absorbs_hot_keys",
          _throughput("fine-grained/zipfian", "fine-grained/uniform"), ">", 0.85),
    # ...and client-side caching turns the hot paths into local hits.
    Claim("reqskew_cache_turns_hot_paths_into_hits",
          _throughput(f"{CACHED}/zipfian", "fine-grained/zipfian"), ">", 1.5),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    cells = summarise(results)
    print_panels(
        cells,
        lambda: "Extension - point queries under request skew (throughput, ops/s)",
        row=0, col=1, fmt=lambda cell: format_rate(cell.throughput), col_header="",
    )
    print(
        "  cache hit rate: "
        + ", ".join(
            f"{distribution} {cells[(CACHED, distribution)].cache_hit_rate * 100:.0f}%"
            for distribution in DISTRIBUTIONS
        )
    )
