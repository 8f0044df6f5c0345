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

Run with ``python -m repro.experiments.a4_caching``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import ObservabilityConfig
from repro.experiments.common import (
    build_cluster,
    build_index,
    cache_hit_rate,
    format_rate,
    print_table,
)
from repro.experiments.scale import DEFAULT, ExperimentScale, measure_window
from repro.workloads import (
    RunResult,
    WorkloadRunner,
    generate_dataset,
    workload_a,
    workload_d,
)

__all__ = ["run", "print_figure", "main"]

#: (workload name, cached)
Key = Tuple[str, bool]


def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 80
) -> Dict[Key, Tuple[RunResult, float]]:
    """Returns ``(RunResult, cache hit rate)`` per (workload, cached) cell."""
    results: Dict[Key, Tuple[RunResult, float]] = {}
    for spec in (workload_a(), workload_d()):
        for cached in (False, True):
            dataset = generate_dataset(scale.num_keys, scale.gap)
            cluster = build_cluster(
                scale,
                observability=ObservabilityConfig(enabled=cached),
                cache_depth=2 if cached else 0,
            )
            index = build_index(cluster, "fine-grained", dataset)
            runner = WorkloadRunner(cluster, dataset)
            result = runner.run(
                index,
                spec,
                num_clients=num_clients,
                warmup_s=scale.warmup_s,
                measure_s=measure_window(scale),
                seed=scale.seed,
            )
            results[(spec.name, cached)] = (
                result,
                cache_hit_rate(result) if cached else 0.0,
            )
    return results


def print_figure(results: Dict[Key, Tuple[RunResult, float]]) -> None:
    """Print the paper-shaped series for *results*."""
    for spec_name in ("A", "D"):
        base, _ = results[(spec_name, False)]
        cached, hit_rate = results[(spec_name, True)]
        gain = cached.throughput / base.throughput if base.throughput else 0.0
        rows = {
            "fine-grained": [format_rate(base.throughput), "-", "-"],
            "fine-grained+cache": [
                format_rate(cached.throughput),
                f"{hit_rate * 100:.0f}%",
                f"{gain:.2f}x",
            ],
        }
        print_table(
            f"Appendix A.4 - workload {spec_name}: inner-node caching "
            "(80 clients, uniform)",
            ["throughput", "hit rate", "gain"],
            rows,
            col_header="",
        )


def main() -> None:
    """CLI entry point."""
    print_figure(run())


if __name__ == "__main__":
    main()
