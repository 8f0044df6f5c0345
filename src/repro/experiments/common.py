"""Shared plumbing for the experiment harnesses.

Every measured cell — one (design, workload, client count, placement)
combination — runs on a *fresh* cluster with a freshly bulk-loaded index,
exactly as the paper restarts its system between runs. ``run_cell`` is the
single entry point all figures use.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter  # namsan: allow[N01] — wall-clock engine-speed measurement
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    CacheConfig,
    ClusterConfig,
    CpuConfig,
    NetworkConfig,
    ObservabilityConfig,
    TreeConfig,
)
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
    "TimedCell",
    "build_cluster",
    "build_index",
    "cache_hit_rate",
    "cluster_config",
    "measure_capacity",
    "run_cell",
    "format_rate",
    "timed_pair",
    "write_obs_artifacts",
]

DESIGNS = {
    "coarse-grained": CoarseGrainedIndex,
    "fine-grained": FineGrainedIndex,
    "hybrid": HybridIndex,
}


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
    return Cluster(
        cluster_config(
            scale,
            num_memory_servers=num_memory_servers,
            colocated=colocated,
            cache=CacheConfig(depth=cache_depth),
            observability=observability or ObservabilityConfig(),
        )
    )


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
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(
        cluster_config(scale, seed, cpu=CpuConfig(cores_per_server=cores_per_server))
    )
    index = build_index(cluster, design, dataset)
    result = WorkloadRunner(cluster, dataset).run(
        index,
        WorkloadSpec(name="capacity-probe", point_fraction=1.0),
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    return result.throughput


@dataclass
class TimedCell:
    """One (design, batching, observability) cell of a message-rate-bound grid."""

    design: str
    batched: bool
    obs: bool
    #: Operations/second of simulated time (deterministic given a seed).
    sim_ops_per_s: float
    #: Simulator events the run scheduled (deterministic given a seed).
    sim_steps: int
    #: Wall-clock seconds of ``runner.run``, one entry per paired rep.
    wall_s: List[float]

    @property
    def wall_steps_per_s(self) -> float:
        """Simulator events per wall-clock second, on the fastest rep."""
        return self.sim_steps / min(self.wall_s)


#: Small pages and wide head groups: scans touch many leaves and the
#: prefetch fan-out is deep. (A head node holds one entry per leaf of its
#: group, so the interval must stay below the page fanout:
#: (512 - 40) // 16 = 29.)
_MESSAGE_RATE_TREE = TreeConfig(page_size=512, head_node_interval=24, prefetch_window=24)


def timed_pair(
    design: str,
    obs: bool,
    scale: ExperimentScale,
    seed: int,
    spec: WorkloadSpec,
    num_clients: int,
    reps: int,
    **window: Any,
) -> Tuple[TimedCell, TimedCell]:
    """Time *design*'s (batched, unbatched) cells on the message-rate-bound
    cluster the batching and engine experiments share.

    The per-message NIC cost (``message_overhead_s=1e-6``) dominates, so
    collapsing N messages into one is worth almost N simulated, and
    host-side per-event work is the largest share of wall time. Each rep
    runs *spec* on a fresh cluster; *window* is ``runner.run``'s
    ``warmup_s``/``measure_s`` or ``ops_per_client``. Only ``runner.run``
    is on the clock: the bulk load schedules no events, and the garbage
    collector is parked so a collection of build garbage cannot land in
    the window. Wall time on shared hosts moves in phases, so the pair's
    order alternates per rep and slow phases bias neither mode.
    """
    cells = {
        batched: TimedCell(design, batched, obs, 0.0, 0, []) for batched in (True, False)
    }
    for rep in range(reps):
        for batched in (True, False) if rep % 2 == 0 else (False, True):
            dataset = generate_dataset(scale.num_keys, scale.gap)
            cluster = Cluster(
                cluster_config(
                    scale,
                    seed,
                    network=NetworkConfig(
                        message_overhead_s=1.0e-6, doorbell_batching=batched
                    ),
                    tree=_MESSAGE_RATE_TREE,
                    observability=ObservabilityConfig(enabled=obs),
                )
            )
            index = build_index(cluster, design, dataset)
            runner = WorkloadRunner(cluster, dataset)
            gc.collect()
            gc.disable()
            try:
                started = perf_counter()
                result = runner.run(
                    index, spec, num_clients=num_clients, seed=seed, **window
                )
                wall_s = perf_counter() - started
            finally:
                gc.enable()
            cell = cells[batched]
            cell.sim_ops_per_s = result.throughput
            cell.sim_steps = cluster.sim.events_scheduled
            cell.wall_s.append(wall_s)
    return cells[True], cells[False]


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
