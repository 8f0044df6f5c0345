"""Extension: coherent cache-depth sweep — what caching upper levels buys.

Appendix A.4 sketches client-side caching of upper tree levels; the
coherent :class:`repro.index.caching.CachingRemoteAccessor` turns it into
a real design axis: **cache depth** (how many of the top tree levels each
client caches) against request **skew** and **write ratio**. This grid sweeps
all three on the fine-grained design using the config-driven wiring
(``CacheConfig.depth``) with the observability hub attached, so every
reported hit/revalidation/invalidation figure comes from the namscope
counters the cache exports.

Per cell: simulated ops/s, hit rate, remote READs per operation (the
traversal round trips actually saved, revalidation READs included), and
the revalidation/invalidation volume (the price of coherence under
writes). Gated by ``python -m repro gate cachedepth`` against
``BENCH_caching.json`` (docs/caching.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.config import CacheConfig, ObservabilityConfig
from repro.experiments.common import (
    build_index,
    cache_hit_rate,
    cluster_config,
    format_rate,
    print_table,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale
from repro.nam.cluster import Cluster
from repro.rdma.verbs import Verb
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

__all__ = [
    "CacheCell",
    "DEPTHS",
    "DISTRIBUTIONS",
    "WRITE_RATIOS",
    "run",
    "print_figure",
    "speedup",
    "CLAIMS",
    "DEFAULT_SCALE",
]

DEPTHS: Tuple[int, ...] = (0, 1, 2, 3)
DISTRIBUTIONS: Tuple[str, ...] = ("uniform", "zipfian")
WRITE_RATIOS: Tuple[float, ...] = (0.0, 0.05, 0.5)

DEFAULT_SCALE = ExperimentScale(
    num_keys=20_000,
    num_memory_servers=4,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.004,
)


@dataclass
class CacheCell:
    """One (depth, distribution, write ratio) measurement."""

    depth: int
    distribution: str
    write_ratio: float
    sim_ops_per_s: float
    hit_rate: float
    reads_per_op: float
    revalidations: int
    revalidation_misses: int
    invalidations: int

    @property
    def key(self) -> str:
        return cell_key(self.depth, self.distribution, self.write_ratio)


def cell_key(depth: int, distribution: str, write_ratio: float) -> str:
    return f"{distribution}/w{write_ratio:g}/depth{depth}"


def _spec(write_ratio: float, distribution: str) -> WorkloadSpec:
    return WorkloadSpec(
        name=f"cache-w{write_ratio:g}",
        point_fraction=1.0 - write_ratio,
        insert_fraction=write_ratio,
        distribution=distribution,
    )


def _measure_cell(
    depth: int,
    distribution: str,
    write_ratio: float,
    scale: ExperimentScale,
    num_clients: int,
    seed: int,
) -> CacheCell:
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(
        cluster_config(
            scale,
            seed,
            cache=CacheConfig(depth=depth),
            observability=ObservabilityConfig(enabled=True),
        )
    )
    index = build_index(cluster, "fine-grained", dataset)
    runner = WorkloadRunner(cluster, dataset)
    baseline_reads = sum(
        server.stats.ops[Verb.READ] for server in cluster.memory_servers
    )
    result = runner.run(
        index,
        _spec(write_ratio, distribution),
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    total_reads = (
        sum(server.stats.ops[Verb.READ] for server in cluster.memory_servers)
        - baseline_reads
    )
    registry = cluster.obs.registry
    return CacheCell(
        depth=depth,
        distribution=distribution,
        write_ratio=write_ratio,
        sim_ops_per_s=result.throughput,
        hit_rate=cache_hit_rate(result),
        # Whole-run READs (warm-up included) over window ops: slightly
        # over-estimated, identically for every cell.
        reads_per_op=total_reads / max(1, result.total_ops),
        revalidations=int(registry.counter("nam_cache_revalidations_total").value),
        revalidation_misses=int(
            registry.counter("nam_cache_revalidation_misses_total").value
        ),
        invalidations=int(registry.counter("nam_cache_invalidations_total").value),
    )


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    num_clients: int = 80,
) -> Dict[str, CacheCell]:
    """Measure the depth x skew x write-ratio grid; keyed by cell_key."""
    seed = scale.seed if seed is None else seed
    results: Dict[str, CacheCell] = {}
    for distribution in DISTRIBUTIONS:
        for write_ratio in WRITE_RATIOS:
            for depth in DEPTHS:
                cell = _measure_cell(
                    depth, distribution, write_ratio, scale, num_clients, seed
                )
                results[cell.key] = cell
    return results


def speedup(
    results: Mapping[str, CacheCell], distribution: str, write_ratio: float
) -> float:
    """Best-depth / depth-0 ops/s ratio of one (distribution, write ratio)."""
    series = [results[cell_key(d, distribution, write_ratio)] for d in DEPTHS]
    return max(cell.sim_ops_per_s for cell in series) / series[0].sim_ops_per_s


CLAIMS = (
    # The acceptance bar: caching buys the Zipfian read-only workload at
    # least 2x simulated throughput at the best depth.
    Claim("zipf_readonly_best_depth", lambda r: speedup(r, "zipfian", 0.0), ">=", 2.0),
    # Depth 0 is a clean disable: no cache traffic at all.
    Claim("depth0_is_uncached",
          lambda r: sum(c.hit_rate + c.revalidations + c.invalidations
                        for c in r.values() if c.depth == 0), "==", 0),
    # Read-only runs never revalidate (no structure modification ran).
    Claim("readonly_never_revalidates",
          lambda r: sum(c.revalidations for c in r.values() if c.write_ratio == 0.0),
          "==", 0),
)


def print_figure(results: Dict[str, CacheCell]) -> None:
    """Print one table per (distribution, write ratio) series."""
    groups: Dict[Tuple[str, float], Dict[int, CacheCell]] = {}
    for cell in results.values():
        groups.setdefault((cell.distribution, cell.write_ratio), {})[
            cell.depth
        ] = cell
    for (distribution, write_ratio), by_depth in sorted(groups.items()):
        base = by_depth.get(0)
        rows = {}
        for depth in sorted(by_depth):
            cell = by_depth[depth]
            gain = (
                cell.sim_ops_per_s / base.sim_ops_per_s
                if base and base.sim_ops_per_s
                else 0.0
            )
            rows[f"depth {depth}"] = [
                format_rate(cell.sim_ops_per_s),
                f"{cell.hit_rate * 100:.0f}%" if depth else "-",
                f"{cell.reads_per_op:.1f}",
                f"{cell.revalidations}" if depth else "-",
                f"{gain:.2f}x",
            ]
        print_table(
            f"Extension (A.4) - cache depth, {distribution}, "
            f"write ratio {write_ratio:g} (fine-grained)",
            ["ops/s", "hit rate", "READs/op", "revals", "gain"],
            rows,
            col_header="",
        )
