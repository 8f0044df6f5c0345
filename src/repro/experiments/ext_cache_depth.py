"""Extension: coherent cache-depth sweep — speedup and perf regression.

Appendix A.4 sketches client-side caching of upper tree levels; the
coherent :class:`repro.index.caching.RemoteCache` turns it into a real
design axis: **cache depth** (how many of the top tree levels each client
caches) against request **skew** and **write ratio**. This harness sweeps
the full grid on the fine-grained design using the config-driven wiring
(``CacheConfig.depth``) with the observability hub attached, so every
reported hit/revalidation/invalidation figure comes from the namscope
counters the cache exports.

Per cell: simulated ops/s, hit rate, remote READs per operation (the
traversal round trips actually saved, revalidation READs included), and
the revalidation/invalidation volume (the price of coherence under
writes).

Doubles as the cache perf-regression gate: ``--check BASELINE`` compares
a run against a committed baseline JSON and exits non-zero if any cell's
simulated ops/s regressed more than ``TOLERANCE`` or if the Zipfian
read-only speedup at the best depth fell below ``SPEEDUP_FLOOR``.
``--update-baseline BASELINE`` rewrites the file.

Run with ``python -m repro.experiments.ext_cache_depth``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import ObservabilityConfig
from repro.experiments.common import (
    build_cluster,
    build_index,
    cache_hit_rate,
    format_rate,
    print_table,
)
from repro.experiments.scale import ExperimentScale
from repro.rdma.verbs import Verb
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

__all__ = [
    "CacheCell",
    "DEPTHS",
    "DISTRIBUTIONS",
    "WRITE_RATIOS",
    "run",
    "results_to_json",
    "check_against_baseline",
    "print_figure",
    "main",
    "SPEEDUP_FLOOR",
    "TOLERANCE",
]

#: Required Zipfian read-only speedup of the best cache depth over the
#: uncached baseline (the ISSUE's acceptance bar).
SPEEDUP_FLOOR = 2.0
#: Allowed per-cell regression of simulated ops/s vs the committed baseline.
TOLERANCE = 0.20

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

#: Tiny grid for the CI smoke (caching) job.
SMOKE = ExperimentScale(
    num_keys=6_000,
    num_memory_servers=4,
    memory_servers_per_machine=2,
    warmup_s=0.0005,
    measure_s=0.002,
)

SMOKE_WRITE_RATIOS: Tuple[float, ...] = (0.0, 0.5)


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
    cluster = build_cluster(
        replace(scale, seed=seed),
        observability=ObservabilityConfig(enabled=True),
        cache_depth=depth,
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
    num_clients: int = 80,
    seed: Optional[int] = None,
    write_ratios: Optional[Tuple[float, ...]] = None,
) -> Dict[str, CacheCell]:
    """Measure the depth x skew x write-ratio grid; keyed by cell_key."""
    seed = scale.seed if seed is None else seed
    if write_ratios is None:
        write_ratios = WRITE_RATIOS
    results: Dict[str, CacheCell] = {}
    for distribution in DISTRIBUTIONS:
        for write_ratio in write_ratios:
            for depth in DEPTHS:
                cell = _measure_cell(
                    depth, distribution, write_ratio, scale, num_clients, seed
                )
                results[cell.key] = cell
    return results


def _speedups(results: Dict[str, CacheCell]) -> Dict[str, float]:
    """Best-depth / depth-0 ops/s ratio per (distribution, write ratio)."""
    speedups: Dict[str, float] = {}
    groups: Dict[Tuple[str, float], List[CacheCell]] = {}
    for cell in results.values():
        groups.setdefault((cell.distribution, cell.write_ratio), []).append(cell)
    for (distribution, write_ratio), cells in groups.items():
        base = next((c for c in cells if c.depth == 0), None)
        if base is None or base.sim_ops_per_s <= 0:
            continue
        best = max(c.sim_ops_per_s for c in cells)
        speedups[f"{distribution}/w{write_ratio:g}"] = best / base.sim_ops_per_s
    return speedups


def results_to_json(results: Dict[str, CacheCell]) -> Dict:
    """A JSON-serializable snapshot (the BENCH_caching.json payload)."""
    return {
        "cells": {key: asdict(cell) for key, cell in results.items()},
        "speedups": _speedups(results),
    }


def check_against_baseline(
    results: Dict[str, CacheCell], baseline: Dict
) -> List[str]:
    """Regression failures of *results* vs a committed *baseline* payload.

    Every cell's simulated ops/s must stay above ``(1 - TOLERANCE) *``
    baseline — depth-0 cells gate the uncached path, depth>0 write-heavy
    cells gate the coherence overhead (revalidation/invalidation cost).
    The Zipfian read-only best-depth speedup must additionally clear
    ``SPEEDUP_FLOOR`` in absolute terms. Improvements never fail.
    """
    failures: List[str] = []
    base_cells = baseline.get("cells", {})
    for key, cell in results.items():
        base = base_cells.get(key)
        if base is None:
            failures.append(f"{key}: missing from baseline")
            continue
        reference = base.get("sim_ops_per_s", 0.0)
        if reference > 0 and cell.sim_ops_per_s < (1.0 - TOLERANCE) * reference:
            failures.append(
                f"{key}: sim_ops_per_s regressed {cell.sim_ops_per_s:.0f} < "
                f"{(1.0 - TOLERANCE) * reference:.0f} "
                f"(baseline {reference:.0f}, tolerance {TOLERANCE:.0%})"
            )
    speedup = _speedups(results).get("zipfian/w0", 0.0)
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"zipfian read-only: best-depth speedup {speedup:.2f}x is below "
            f"the {SPEEDUP_FLOOR:.1f}x floor"
        )
    return failures


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


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="coherent cache-depth sweep + cache perf regression gate"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI grid (faster)"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write results to this file"
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="compare against this baseline JSON; exit non-zero on regression",
    )
    parser.add_argument(
        "--update-baseline",
        type=Path,
        default=None,
        help="write this run's numbers as the new baseline",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        results = run(
            scale=SMOKE,
            num_clients=24,
            seed=args.seed,
            write_ratios=SMOKE_WRITE_RATIOS,
        )
    else:
        results = run(seed=args.seed)
    print_figure(results)
    payload = results_to_json(results)
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.update_baseline is not None:
        args.update_baseline.parent.mkdir(parents=True, exist_ok=True)
        args.update_baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote baseline {args.update_baseline}")
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_against_baseline(results, baseline)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}")
        if failures:
            return 1
        speedup = _speedups(results).get("zipfian/w0", 0.0)
        print(
            f"cache perf check OK vs {args.check} "
            f"(tolerance {TOLERANCE:.0%}, zipfian read-only best-depth "
            f"speedup {speedup:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
