"""The seven workloads, one rep of one cell, and the checks on its outcome.

A *cell* is one design on one workload's inputs: a fresh ``Cluster`` with
a freshly bulk-loaded index, exactly as ``experiments.common.run_cell``
builds it. A *rep* sets a cell up and runs the workload's closed loop on
it once, fixed work (``ops_per_client``), with caches empty at the start
and the cold start inside the window. Everything here goes through the
program's public functions; no file under ``src/`` is edited or patched.
"""

from __future__ import annotations

import functools
import gc
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.config import CacheConfig, ClusterConfig, ObservabilityConfig
from repro.experiments.common import build_index
from repro.index.verify import verify_index
from repro.nam.cluster import Cluster
from repro.rdma.faults import FaultPlan
from repro.rdma.verbs import Verb
from repro.workloads import (
    Dataset,
    RunResult,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
    workload_a,
    workload_b,
    workload_c,
    workload_d,
)

from host import Spans

#: Loaded keys and their spacing: a three-level tree. 100 k keys adds a
#: level and makes range cells 5x longer for no new information.
NUM_KEYS = 20_000
KEY_GAP = 8
#: Rep r runs input seed ``seed + (r % INPUTS) * INPUT_STRIDE``; every
#: simulated metric is the mean over the INPUTS inputs' first runs, so it
#: depends on ``--seed`` alone, never on ``--seconds`` or host speed.
INPUTS = 3
INPUT_STRIDE = 1_000_003
#: Timed reps a run makes at least: each input twice.
MIN_REPS = 2 * INPUTS
#: Post-run checks: seeded lookups of loaded keys, and of inserted pairs.
VERIFY_LOOKUPS = 200
VERIFY_INSERTED = 20

#: Design prefix of a workload name -> ``experiments.common.DESIGNS`` key.
DESIGNS = {"cg": "coarse-grained", "fg": "fine-grained", "hy": "hybrid"}


class CheckFailure(Exception):
    """The program's output was wrong; the run reports ``correct: false``."""


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the one design gated on it."""

    name: str
    design: str
    spec: WorkloadSpec
    clients: int
    ops_per_client: int
    cache_depth: int = 0
    replication_factor: int = 1
    #: Attach a no-op ``FaultPlan(seed)``: the engine the chaos tests run
    #: (fault path on every verb and RPC, decode memo and zero-copy off).
    fault_plan: bool = False
    #: Run the gated reps with the observability hub on.
    hub: bool = False

    @property
    def ops(self) -> int:
        return self.clients * self.ops_per_client


#: Why each workload exists and what it bypasses: README.md and the
#: ``why`` fields of BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fg_point_uniform", "fg", workload_a(), 120, 100),
        Workload("cg_point_zipf", "cg", workload_a("zipfian"), 120, 100),
        Workload("fg_insert_heavy", "fg", workload_d(), 120, 60),
        Workload("hy_range_scan", "hy", workload_b(0.01), 120, 20),
        Workload("fg_zipf_cached", "fg", workload_a("zipfian"), 120, 100,
                 cache_depth=2),
        # 40 clients keep it unsaturated: a no-op plan at 120 clients times
        # out 16 % of coarse-grained operations.
        Workload("hy_mixed_resilient", "hy", workload_c(), 40, 200,
                 replication_factor=2, fault_plan=True),
        Workload("fg_point_uniform_traced", "fg", workload_a(), 120, 100,
                 hub=True),
    )
}


@dataclass
class Cell:
    cluster: Cluster
    index: Any
    dataset: Dataset
    runner: WorkloadRunner


@dataclass
class Rep:
    """One set-up plus one ``runner.run``, with everything measured on it."""

    number: int
    design: str
    seed: int
    hub: bool
    setup_wall_s: float
    run_wall_s: float
    result: RunResult
    #: Exact counters of the run, public attributes only.
    counters: Dict[str, Any]
    #: Mean wall of the calibration loops just before and after the rep.
    calibration_s: float = 0.0

    @property
    def completed(self) -> int:
        return self.result.total_ops

    @property
    def errored(self) -> int:
        return self.result.errored_ops

    def outcome(self) -> tuple:
        """The whole simulated outcome; equal for equal inputs."""
        result = self.result
        return (
            result.window_s,
            result.op_counts,
            result.latencies,
            result.errors,
            result.network,
            result.cpu_utilization,
            self.counters,
        )

    def latencies_s(self) -> np.ndarray:
        """Per-operation latency, all operation types pooled."""
        return np.concatenate(
            [np.asarray(samples) for samples in self.result.latencies.values()]
        )


def build_cell(
    workload: Workload, design: str, seed: int, hub: bool, spans: Spans, rep: int
) -> Cell:
    """Dataset, cluster, fault/obs attach, bulk load and runner for one cell."""
    with spans.span("setup_dataset", rep):
        dataset = generate_dataset(NUM_KEYS, KEY_GAP)
    with spans.span("setup_cluster", rep):
        cluster = Cluster(
            ClusterConfig(
                seed=seed,
                replication_factor=workload.replication_factor,
                cache=CacheConfig(depth=workload.cache_depth),
                observability=ObservabilityConfig(enabled=hub),
            )
        )
        if workload.fault_plan:
            cluster.attach_faults(FaultPlan(seed=seed))
    with spans.span("setup_bulk_load", rep):
        index = build_index(cluster, DESIGNS[design], dataset)
    return Cell(cluster, index, dataset, WorkloadRunner(cluster, dataset))


def _counters(cluster: Cluster, verbs: Dict[int, Any], ports_before: list,
              result: RunResult) -> Dict[str, Any]:
    """Exact work counters of one run, summed over the cluster.
    *ports_before* holds the memory-server ports' channel snapshots taken
    before the run; compute servers are created by the run, so their ports
    start at zero."""
    ops = {verb: sum(stats.ops[verb] for stats in verbs.values()) for verb in Verb}
    compute_ports = [server.port for server in cluster.compute_servers]
    channels = [
        (channel, before)
        for server, port_before in zip(cluster.memory_servers, ports_before)
        for channel, before in zip((server.port.tx, server.port.rx), port_before)
    ]
    channels += [
        (channel, (0, 0)) for port in compute_ports for channel in (port.tx, port.rx)
    ]
    # A channel is busy for its per-message overhead plus bytes / rate.
    busiest = max(
        (channel.messages_total - messages0) * channel.overhead
        + (channel.bytes_total - bytes0) / channel.rate
        for channel, (bytes0, messages0) in channels
    )
    return {
        "events": cluster.sim.events_scheduled,
        "read": ops[Verb.READ],
        "write": ops[Verb.WRITE],
        "atomic": ops[Verb.CAS] + ops[Verb.FETCH_ADD],
        "send": ops[Verb.SEND],
        "payload_bytes": sum(stats.total_bytes for stats in verbs.values()),
        "wire_bytes": result.network_bytes,
        "doorbells": sum(port.doorbells for port in compute_ports),
        "wqes": sum(port.wqes_posted for port in compute_ports),
        "max_port_util": busiest / result.window_s,
    }


def run_rep(
    workload: Workload,
    spans: Spans,
    number: int,
    seed: int,
    design: Optional[str] = None,
    hub: Optional[bool] = None,
    profiler: Any = None,
) -> tuple:
    """Set one cell up and run the workload on it once; returns
    ``(rep, cell)``. *design* and *hub* default to the workload's own.
    Only ``runner.run`` is inside ``run_wall_s`` (and inside *profiler*);
    the garbage collector is parked from set-up to the end of the run."""
    design = design or workload.design
    hub = workload.hub if hub is None else hub
    gc.collect()
    gc.disable()
    try:
        with spans.span("setup", number) as setup:
            cell = build_cell(workload, design, seed, hub, spans, number)
        cluster = cell.cluster
        ports_before = [
            (server.port.tx.snapshot(), server.port.rx.snapshot())
            for server in cluster.memory_servers
        ]
        baseline = cluster.reset_measurement()
        run = cell.runner.run
        if profiler is not None:
            run = functools.partial(profiler.runcall, run)
        with spans.span("run", number) as timed:
            result = run(
                cell.index,
                workload.spec,
                num_clients=workload.clients,
                ops_per_client=workload.ops_per_client,
                seed=seed,
            )
        delta = cluster.measurement_delta(baseline)
    finally:
        gc.enable()
    rep = Rep(
        number=number,
        design=design,
        seed=seed,
        hub=hub,
        setup_wall_s=setup["end"] - setup["start"],
        run_wall_s=timed["end"] - timed["start"],
        result=result,
        counters=_counters(cluster, delta["verbs"], ports_before, result),
    )
    return rep, cell


def verify_cell(workload: Workload, rep: Rep, cell: Cell) -> None:
    """Check the index a run left behind, through the simulated fabric.

    The inserted pairs are read off the index (a full-key-space scan minus
    the loaded pairs), never replayed from the runner's private draw order.
    """
    where = f"{workload.name} seed {rep.seed} ({rep.design})"
    cluster, dataset = cell.cluster, cell.dataset
    report = verify_index(cluster, cell.index)
    if not report.ok:
        raise CheckFailure(f"{where}: {report.summary()}: {report.violations[:3]}")
    session = cell.index.session(cluster.new_compute_server())
    rng = random.Random(rep.seed)
    for ordinal in rng.sample(range(dataset.num_keys), VERIFY_LOOKUPS):
        key = dataset.key_at(ordinal)
        if ordinal not in cluster.execute(session.lookup(key)):
            raise CheckFailure(f"{where}: lookup({key}) lost loaded value {ordinal}")
    extra = Counter(cluster.execute(session.range_scan(0, dataset.key_space)))
    extra.subtract(dataset.pairs())
    missing = [pair for pair, count in extra.items() if count < 0]
    inserted = sorted((+extra).elements())
    expected = rep.result.op_counts.get("insert", 0)
    if missing or len(inserted) != expected:
        raise CheckFailure(
            f"{where}: scan misses {len(missing)} loaded pairs and holds "
            f"{len(inserted)} more, expected {expected} inserted"
        )
    for key, value in rng.sample(inserted, min(VERIFY_INSERTED, len(inserted))):
        if value not in cluster.execute(session.lookup(key)):
            raise CheckFailure(f"{where}: lookup({key}) lost inserted value {value}")


def require_same_outcome(workload: Workload, first: Rep, other: Rep, what: str) -> None:
    """Equal inputs must give the same simulated outcome, event for event."""
    if first.outcome() != other.outcome():
        differing = [
            name
            for name, a, b in zip(
                ("window", "op_counts", "latencies", "errors", "network",
                 "cpu_utilization", "counters"),
                first.outcome(),
                other.outcome(),
            )
            if a != b
        ]
        raise CheckFailure(
            f"{workload.name} seed {first.seed}: {what} (rep {other.number}) "
            f"differs from rep {first.number} in {', '.join(differing)}"
        )


def sim_summary(rep: Rep) -> Dict[str, float]:
    """The simulated end-to-end numbers of one run (simulated clock)."""
    latencies = np.sort(rep.latencies_s())
    slowest = latencies[-max(1, latencies.size // 100):]
    return {
        "sim_kops_per_s": rep.completed / (rep.result.window_s * 1e3),
        "sim_gmean_us": float(np.exp(np.log(latencies).mean())) * 1e6,
        "sim_p50_us": float(np.percentile(latencies, 50)) * 1e6,
        "sim_p99_us": float(np.percentile(latencies, 99)) * 1e6,
        # The mean of the slowest 1 %, not the 99th percentile itself: a
        # saturated closed loop puts the whole upper tail on one plateau
        # (cg_point_zipf: 96.384 us at every seed), and the contract refuses
        # a time that reads the same on every run.
        "sim_p99_tail_us": float(slowest.mean()) * 1e6,
        "samples": int(latencies.size),
        "tail_samples": int(slowest.size),
    }


def input_seed(seed: int, rep_number: int) -> int:
    return seed + (rep_number % INPUTS) * INPUT_STRIDE
