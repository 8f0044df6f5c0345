"""Shared plumbing for the experiment harnesses.

Every measured cell — one (design, workload, client count, placement)
combination — runs on a *fresh* cluster with a freshly bulk-loaded index,
exactly as the paper restarts its system between runs. ``run_cell`` is the
single entry point all figures use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.config import CacheConfig, ClusterConfig, ObservabilityConfig
from repro.errors import ConfigurationError
from repro.index import (
    CoarseGrainedIndex,
    FineGrainedIndex,
    HashPartitioner,
    HybridIndex,
)
from repro.nam.cluster import Cluster
from repro.workloads import (
    Dataset,
    RunResult,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
    skewed_partitioner,
)
from repro.experiments.scale import ExperimentScale, measure_window

__all__ = [
    "DESIGNS",
    "build_cluster",
    "build_index",
    "cache_hit_rate",
    "run_cell",
    "format_rate",
    "write_obs_artifacts",
]

DESIGNS = {
    "coarse-grained": CoarseGrainedIndex,
    "fine-grained": FineGrainedIndex,
    "hybrid": HybridIndex,
}


def build_cluster(
    scale: ExperimentScale,
    num_memory_servers: Optional[int] = None,
    colocated: bool = False,
    observability: Optional[ObservabilityConfig] = None,
    cache_depth: int = 0,
) -> Cluster:
    """A fresh cluster shaped by *scale*.

    Pass an :class:`ObservabilityConfig` to run the cell with the metrics
    registry and span sampling attached; the default (None) builds the
    cluster with observability off, exactly as before. *cache_depth* > 0
    gives every fine-grained session the coherent client cache
    (docs/caching.md); with observability on as well, the cell's hit rate
    can be read back with :func:`cache_hit_rate`.
    """
    servers = num_memory_servers or scale.num_memory_servers
    config = ClusterConfig(
        num_memory_servers=servers,
        memory_servers_per_machine=min(scale.memory_servers_per_machine, servers),
        colocated=colocated,
        seed=scale.seed,
        cache=CacheConfig(depth=cache_depth),
        observability=observability or ObservabilityConfig(),
    )
    return Cluster(config)


def cache_hit_rate(result: RunResult) -> float:
    """Share of node reads the client caches served over *result*'s whole
    run, from the ``nam_cache_*`` counters of its observability snapshot."""
    counters = {
        metric["name"]: metric["value"]
        for metric in result.observability["metrics"]
        if metric["type"] == "counter"
    }
    hits = counters.get("nam_cache_hits_total", 0)
    misses = counters.get("nam_cache_misses_total", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def build_index(
    cluster: Cluster,
    design: str,
    dataset: Dataset,
    skewed: bool = False,
    partitioning: str = "range",
    name: str = "ycsb",
):
    """Bulk-load *dataset* into *cluster* under the named design.

    ``skewed=True`` applies the paper's attribute-value-skew placement
    (80/12/5/3 for four servers) to the partitioned designs; the
    fine-grained design scatters pages round-robin regardless, which is
    the entire point (Section 2.3).
    """
    if design not in DESIGNS:
        raise ConfigurationError(f"unknown design {design!r}")
    cls = DESIGNS[design]
    pairs = dataset.pairs()
    if cls is FineGrainedIndex:
        return cls.build(cluster, name, pairs)
    if partitioning == "hash":
        if skewed:
            # Attribute-value skew concentrates one key's duplicates; with
            # our unique-key datasets hash placement stays balanced, so the
            # paper models hash-under-skew as single-server bound. Range
            # placement reproduces that bound directly.
            partitioner = skewed_partitioner(dataset, cluster.num_memory_servers)
        else:
            partitioner = HashPartitioner(cluster.num_memory_servers)
    elif skewed:
        partitioner = skewed_partitioner(dataset, cluster.num_memory_servers)
    else:
        partitioner = None
    return cls.build(
        cluster, name, pairs, partitioner=partitioner, key_space=dataset.key_space
    )


def run_cell(
    design: str,
    spec: WorkloadSpec,
    num_clients: int,
    scale: ExperimentScale,
    skewed: bool = False,
    num_memory_servers: Optional[int] = None,
    colocated: bool = False,
    partitioning: str = "range",
    num_keys: Optional[int] = None,
    observability: Optional[ObservabilityConfig] = None,
) -> RunResult:
    """Measure one cell on a fresh cluster.

    With *observability* set, the returned result additionally carries
    the full metrics/span snapshot in :attr:`RunResult.observability`.
    """
    dataset = generate_dataset(num_keys or scale.num_keys, scale.gap)
    cluster = build_cluster(scale, num_memory_servers, colocated, observability)
    index = build_index(cluster, design, dataset, skewed, partitioning)
    runner = WorkloadRunner(cluster, dataset)
    return runner.run(
        index,
        spec,
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=measure_window(scale, spec.selectivity if spec.range_fraction else 0),
        seed=scale.seed,
    )


def write_obs_artifacts(
    snapshot: Optional[Mapping[str, Any]], out_dir: Path, label: str
) -> Path:
    """Dump one cell's observability *snapshot* as CI-uploadable files.

    Writes ``<out_dir>/<label>/`` containing the full snapshot, a Chrome
    trace (``chrome://tracing`` / Perfetto), and each flight-recorder
    bundle as its own ``flight-NN.json`` — the forensics CI attaches when
    a chaos or overload job fails (docs/observability.md). Tolerates a
    ``None`` snapshot (observability off) by writing an empty marker so
    the upload step always has a directory.
    """
    from repro.obs.export import chrome_trace

    cell_dir = out_dir / label
    cell_dir.mkdir(parents=True, exist_ok=True)
    if snapshot is None:
        (cell_dir / "no-observability.txt").write_text(
            "cell ran with observability disabled; no snapshot captured\n"
        )
        return cell_dir
    (cell_dir / "snapshot.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True)
    )
    (cell_dir / "trace.json").write_text(
        json.dumps(chrome_trace(snapshot), sort_keys=True)
    )
    for index, bundle in enumerate(snapshot.get("flight", {}).get("dumps", [])):
        (cell_dir / f"flight-{index:02d}.json").write_text(
            json.dumps(bundle, indent=2, sort_keys=True)
        )
    return cell_dir


def format_rate(ops_per_s: float) -> str:
    """Human-readable operations/second."""
    if ops_per_s >= 1e6:
        return f"{ops_per_s / 1e6:.2f}M"
    if ops_per_s >= 1e3:
        return f"{ops_per_s / 1e3:.1f}K"
    return f"{ops_per_s:.0f}"


def print_table(
    title: str,
    col_labels: Sequence,
    rows: Dict[str, List[str]],
    col_header: str = "clients",
) -> None:
    """Render one figure's series as an aligned text table."""
    print(f"\n== {title} ==")
    header = f"{col_header:>22s} " + " ".join(f"{c:>10}" for c in col_labels)
    print(header)
    for label, cells in rows.items():
        print(f"{label:>22s} " + " ".join(f"{c:>10}" for c in cells))
