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

Run with ``python -m repro.experiments.ext_request_skew``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import ObservabilityConfig
from repro.experiments.common import (
    DESIGNS,
    build_cluster,
    build_index,
    cache_hit_rate,
    format_rate,
    print_table,
)
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.workloads import RunResult, WorkloadRunner, generate_dataset, workload_a

__all__ = ["run", "print_figure", "main", "DISTRIBUTIONS", "CACHED"]

DISTRIBUTIONS = ("uniform", "zipfian", "scrambled_zipfian")

#: Row label of the fine-grained design under ``CacheConfig(depth=2)``.
CACHED = "fine-grained+cache"

#: (design label, distribution)
Key = Tuple[str, str]


def run(
    scale: ExperimentScale = DEFAULT, num_clients: int = 80
) -> Dict[Key, RunResult]:
    """Run this experiment's grid; returns the per-cell results."""
    results: Dict[Key, RunResult] = {}
    for label in list(DESIGNS) + [CACHED]:
        cached = label == CACHED
        for distribution in DISTRIBUTIONS:
            dataset = generate_dataset(scale.num_keys, scale.gap)
            cluster = build_cluster(
                scale,
                observability=ObservabilityConfig(enabled=cached),
                cache_depth=2 if cached else 0,
            )
            index = build_index(
                cluster, "fine-grained" if cached else label, dataset
            )
            runner = WorkloadRunner(cluster, dataset)
            results[(label, distribution)] = runner.run(
                index,
                workload_a(distribution=distribution),
                num_clients=num_clients,
                warmup_s=scale.warmup_s,
                measure_s=scale.measure_s,
                seed=scale.seed,
            )
    return results


def print_figure(results: Dict[Key, RunResult]) -> None:
    """Print the paper-shaped series for *results*."""
    labels = sorted({label for label, _ in results})
    rows = {
        label: [
            format_rate(results[(label, distribution)].throughput)
            for distribution in DISTRIBUTIONS
        ]
        for label in labels
    }
    print_table(
        "Extension - point queries under request skew (throughput, ops/s)",
        DISTRIBUTIONS,
        rows,
        col_header="",
    )
    print(
        "  cache hit rate: "
        + ", ".join(
            f"{distribution} {cache_hit_rate(results[(CACHED, distribution)]) * 100:.0f}%"
            for distribution in DISTRIBUTIONS
        )
    )


def main() -> None:
    """CLI entry point."""
    print_figure(run())


if __name__ == "__main__":
    main()
