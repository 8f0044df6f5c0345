"""Shared plumbing for the experiment harnesses.

Every measured cell — one (design, workload, client count, placement)
combination — runs on a *fresh* cluster with a freshly bulk-loaded index,
exactly as the paper restarts its system between runs. ``run_cell`` is the
single entry point all figures use (``run_open_cell`` its open-loop twin
for the overload and tail extensions); :func:`summarise` reduces its
results to :class:`Cell` summaries, which every ``print_figure``
prints and ``BENCH_paper.json`` holds (:mod:`repro.experiments.paper`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import ClusterConfig, CpuConfig
from repro.errors import ConfigurationError
from repro.index import DESIGNS, FineGrainedIndex
from repro.nam.cluster import Cluster
from repro.workloads import (
    Dataset,
    OpType,
    RunResult,
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
    skewed_partitioner,
)
from repro.experiments.scale import ExperimentScale, measure_window

__all__ = [
    "DESIGNS",
    "Cell",
    "build_index",
    "cache_hit_rate",
    "cells_of",
    "cluster_config",
    "measure_capacity",
    "pooled_percentile",
    "run_cell",
    "run_open_cell",
    "format_rate",
    "level",
    "pick",
    "print_panels",
    "ratio",
    "summarise",
    "write_obs_artifacts",
]


def cluster_config(
    scale: ExperimentScale,
    seed: Optional[int] = None,
    num_memory_servers: Optional[int] = None,
    **fields: Any,
) -> ClusterConfig:
    """The :class:`ClusterConfig` of *scale*'s shape; *fields* set the rest."""
    servers = num_memory_servers or scale.num_memory_servers
    return ClusterConfig(
        num_memory_servers=servers,
        memory_servers_per_machine=min(scale.memory_servers_per_machine, servers),
        seed=scale.seed if seed is None else seed,
        **fields,
    )


def cache_hit_rate(result: RunResult) -> float:
    """Share of node reads the client caches served over *result*'s whole
    run, from the ``nam_cache_*`` counters of its observability snapshot
    (0.0 for a run without one)."""
    if result.observability is None:
        return 0.0
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
    columns = dataset.columns()
    if cls is FineGrainedIndex:
        return cls.build(cluster, "ycsb", *columns)
    partitioner = skewed_partitioner(dataset, cluster.num_memory_servers) if skewed else None
    return cls.build(
        cluster, "ycsb", *columns, partitioner=partitioner, key_space=dataset.key_space
    )


def run_cell(
    design: str,
    spec: WorkloadSpec,
    num_clients: int,
    scale: ExperimentScale,
    skewed: bool = False,
    num_keys: Optional[int] = None,
    **config: Any,
) -> RunResult:
    """Measure one cell on a fresh cluster.

    *config* goes to :func:`cluster_config`: ``num_memory_servers``,
    ``colocated``, ``cpu``/``tree`` variations, ``cache=CacheConfig(depth)``
    for the coherent client cache of the fine-grained sessions. With
    ``observability`` set, the returned result additionally carries the
    full metrics/span snapshot in :attr:`RunResult.observability` (and a
    cached cell's hit rate can be read back with :func:`cache_hit_rate`).
    """
    dataset = generate_dataset(num_keys or scale.num_keys, scale.gap)
    cluster = Cluster(cluster_config(scale, **config))
    index = build_index(cluster, design, dataset, skewed)
    return WorkloadRunner(cluster, dataset).run(
        index,
        spec,
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=measure_window(scale, spec.selectivity if spec.range_fraction else 0),
        seed=scale.seed,
    )


def run_open_cell(
    config: ClusterConfig,
    design: str,
    tenants: Sequence[TenantSpec],
    scale: ExperimentScale,
    seed: int,
    artifacts: Optional[Path],
    label: str,
) -> RunResult:
    """Measure one open-loop cell (:meth:`WorkloadRunner.run_open`) on a
    fresh cluster built from *config*; with *artifacts*, its observability
    snapshot is written to ``artifacts/label``."""
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(config)
    index = build_index(cluster, design, dataset)
    result = WorkloadRunner(cluster, dataset).run_open(
        index, tenants, warmup_s=scale.warmup_s, measure_s=scale.measure_s, seed=seed
    )
    if artifacts is not None:
        write_obs_artifacts(result.observability, artifacts, label)
    return result


def pooled_percentile(result: RunResult, percentile: float) -> float:
    """*percentile* of every tenant's accepted-operation latencies pooled
    (0.0 when none completed)."""
    latencies = [
        latency for outcome in result.tenants.values() for latency in outcome.latencies
    ]
    return float(np.percentile(latencies, percentile)) if latencies else 0.0


@dataclass(frozen=True)
class Cell:
    """What the figures print and the claims read of one measured cell."""

    #: Completed operations per second, all types together and by type
    #: (Figure 3's cells hold the model's bound here and nothing else).
    throughput: float
    point_throughput: float = 0.0
    insert_throughput: float = 0.0
    #: Mean latency per operation type, seconds; 0.0 when none completed.
    point_latency_s: float = 0.0
    range_latency_s: float = 0.0
    insert_latency_s: float = 0.0
    #: Memory-server traffic: over the window, per completed operation,
    #: the busiest server's share of it; that server's RPC-worker utilization.
    network_gb_per_s: float = 0.0
    network_bytes_per_op: float = 0.0
    hot_server_share: float = 0.0
    hot_cpu: float = 0.0
    #: Client-cache hit rate; 0.0 unless the cell ran with the cache on.
    cache_hit_rate: float = 0.0
    #: Tree height, where the experiment measured it (page-size sweep).
    tree_height: int = 0

    @classmethod
    def of(cls, result: RunResult, tree_height: int = 0) -> "Cell":
        def latency(op_type: str) -> float:
            return result.latency_mean(op_type) if result.latencies.get(op_type) else 0.0

        traffic = [tx + rx for tx, rx in result.network.values()]
        return cls(
            throughput=result.throughput,
            point_throughput=result.throughput_of(OpType.POINT),
            insert_throughput=result.throughput_of(OpType.INSERT),
            point_latency_s=latency(OpType.POINT),
            range_latency_s=latency(OpType.RANGE),
            insert_latency_s=latency(OpType.INSERT),
            network_gb_per_s=result.network_gb_per_s,
            network_bytes_per_op=(
                result.network_bytes / result.total_ops if result.total_ops else 0.0
            ),
            hot_server_share=max(traffic) / sum(traffic) if sum(traffic) else 0.0,
            hot_cpu=max(result.cpu_utilization.values(), default=0.0),
            cache_hit_rate=cache_hit_rate(result),
            tree_height=tree_height,
        )


def summarise(results: Mapping[Any, Any]) -> Dict[Tuple[str, ...], Cell]:
    """*results* as ``{key parts, as strings: Cell}`` — from a figure
    module's ``run`` (tuple keys; :class:`RunResult` or ``(RunResult, tree
    height)`` values) or from ``paper.run`` (``/``-joined keys, Cells)."""
    cells = {}
    for key, value in results.items():
        parts = key.split("/") if isinstance(key, str) else key
        if not isinstance(value, Cell):
            value = Cell.of(*value) if isinstance(value, tuple) else Cell.of(value)
        cells[tuple(str(part) for part in parts)] = value
    return cells


def cells_of(results: Mapping[str, Any], grid: str) -> Dict[str, Any]:
    """One grid's cells of ``paper.run``'s *results*, keyed without the grid."""
    return {
        key[len(grid) + 1:]: cell for key, cell in results.items() if key.startswith(grid + "/")
    }


def pick(results: Mapping[str, Any], path: str) -> Any:
    """The cell of ``paper.run``'s *results* at *path*: a cell key,
    ``grid/part/...``, in which ``[i]`` stands for the i-th distinct value
    of that part across the grid, in run order — ``sweep/skewed/hybrid/A/[-1]``
    is the highest client count, ``fig10/hybrid/[-1]/[0]`` the range workload
    on the smallest data set. Such a claim holds a shape, not a grid size,
    so it can be judged at any scale."""
    grid, *parts = path.split("/")
    keys = [key.split("/") for key in cells_of(results, grid)]
    for position, part in enumerate(parts):
        if part.startswith("["):
            axis = list(dict.fromkeys(key[position] for key in keys))
            parts[position] = axis[int(part[1:-1])]
    return results["/".join([grid, *parts])]


def level(field: str, path: str) -> Callable[[Mapping[str, Any]], float]:
    """Claim measure: *field* of the cell at *path* (see :func:`pick`)."""
    return lambda results: getattr(pick(results, path), field)


def ratio(field: str, over: str, under: str) -> Callable[[Mapping[str, Any]], float]:
    """Claim measure: *field* at path *over* divided by *field* at *under*."""

    def measure(results: Mapping[str, Any]) -> float:
        a, b = (getattr(pick(results, path), field) for path in (over, under))
        return a / b if b else math.inf

    return measure


def measure_capacity(
    design: str,
    scale: ExperimentScale,
    seed: int,
    cores_per_server: int,
    num_clients: int = 64,
) -> float:
    """Closed-loop saturation throughput of *design* at *scale*'s shape.

    A closed loop with enough clients drives every RPC worker to 100%
    utilization without unbounded queueing — the paper's own measurement
    mode — so its throughput is the service capacity the open-loop
    experiments (overload, tail) calibrate their offered load against.
    """
    return run_cell(
        design,
        WorkloadSpec(name="capacity-probe", point_fraction=1.0),
        num_clients,
        replace(scale, seed=seed),
        cpu=CpuConfig(cores_per_server=cores_per_server),
    ).throughput


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


def print_panels(
    cells: Mapping[Tuple[str, ...], Cell],
    title: Callable[..., str],
    row: int,
    col: Optional[int],
    fmt: Callable[[Cell], Any],
    col_header: str = "clients",
) -> None:
    """Print *cells* (of :func:`summarise`) as tables: key part *row* down,
    part *col* across (``None``: *fmt* returns the row, ``{column: text}``),
    one table per combination of the remaining parts (handed to *title*),
    all in run order."""
    panels: Dict[Tuple[str, ...], Dict[str, Dict[str, str]]] = {}
    for key, cell in cells.items():
        rest = tuple(part for i, part in enumerate(key) if i not in (row, col))
        line = panels.setdefault(rest, {}).setdefault(key[row], {})
        line.update(fmt(cell) if col is None else {key[col]: fmt(cell)})
    for rest, rows in panels.items():
        cols = list(next(iter(rows.values())))
        print_table(
            title(*rest), cols, {label: list(line.values()) for label, line in rows.items()},
            col_header,
        )
