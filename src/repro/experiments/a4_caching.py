"""Appendix A.4: opportunities and challenges of client-side caching.

Runs the fine-grained design with and without the coherent inner-node
cache (:mod:`repro.index.caching`, ``CacheConfig(depth=2)`` — both inner
levels at every scale this harness runs) on a read-only point workload —
where caching saves most of the traversal round trips — and on an
insert-heavy workload, where revalidation and invalidation erode the
benefit. Reports throughput and the cache hit rate (from the namscope
``nam_cache_*`` counters).

See :mod:`repro.experiments.ext_cache_depth` for the full cache-depth x
skew x write-ratio sweep backing ``BENCH_caching.json``; its uniform
read-only and 50 %-insert columns are this harness's two workloads at
every depth.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.config import CacheConfig, ObservabilityConfig
from repro.experiments.common import format_rate, level, print_table, ratio, run_cell, summarise
from repro.experiments.gate import Claim
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, workload_a, workload_d

__all__ = ["run", "print_figure", "CLAIMS"]

#: Cell mode -> ``CacheConfig.depth`` (and the hub on, to count the hits).
MODES = {"plain": 0, "cached": 2}


def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 80
) -> Dict[Tuple[str, str], RunResult]:
    """Run the grid; results keyed ``(workload name, mode)``."""
    return {
        (spec.name, mode): run_cell(
            "fine-grained", spec, num_clients, scale,
            cache=CacheConfig(depth=depth),
            observability=ObservabilityConfig(enabled=depth > 0),
        )
        for spec in (workload_a(), workload_d())
        for mode, depth in MODES.items()
    }


def _gain(workload: str):
    return ratio("throughput", f"a4/{workload}/cached", f"a4/{workload}/plain")


CLAIMS = (
    # Read-only workloads benefit significantly from caching; write-heavy
    # workloads benefit less (revalidation/invalidation churn).
    Claim("a4_cache_speeds_up_read_only_lookups", _gain("A"), ">", 1.5),
    Claim("a4_read_only_hit_rate", level("cache_hit_rate", "a4/A/cached"), ">", 0.4),
    Claim("a4_inserts_erode_the_cache_gain",
          lambda r: _gain("D")(r) / _gain("A")(r), "<", 1.0),
)


def print_figure(results: Mapping[Any, Any]) -> None:
    """Print the paper-shaped series for *results*."""
    cells = summarise(results)
    for workload in dict.fromkeys(workload for workload, _mode in cells):
        plain, cached = (cells[(workload, mode)] for mode in MODES)
        rows = {
            "fine-grained": [format_rate(plain.throughput), "-", "-"],
            "fine-grained+cache": [
                format_rate(cached.throughput),
                f"{cached.cache_hit_rate * 100:.0f}%",
                f"{cached.throughput / plain.throughput:.2f}x",
            ],
        }
        print_table(
            f"Appendix A.4 - workload {workload}: inner-node caching (uniform)",
            ["throughput", "hit rate", "gain"], rows, col_header="",
        )
