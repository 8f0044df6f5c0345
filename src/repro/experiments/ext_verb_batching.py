"""Extension: doorbell-batched verb pipeline — what one doorbell buys.

The batching layer (:class:`repro.rdma.qp.VerbBatch`) chains one-sided
verbs to the same memory server behind a single doorbell: one request
message carries every work-queue entry, selective signaling collapses the
completions into one response message, and per-message fixed costs
(``message_overhead_s`` + headers) are paid per *batch* instead of per
verb. Its consumers are the scan prefetch fan-out
(``RemoteAccessor.read_nodes``) and the ``unlock_write`` WRITE+FAA pair.

This grid measures what that buys on a message-rate-bound cluster under a
scan-heavy mix: simulated ops/s and event counts per design, batching on
vs off. Gated by ``python -m repro gate batching`` against
``BENCH_batching.json`` (docs/performance.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.config import NetworkConfig, TreeConfig
from repro.experiments.common import (
    DESIGNS,
    build_index,
    cluster_config,
    format_rate,
    print_table,
)
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale
from repro.nam.cluster import Cluster
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

__all__ = ["BatchingCell", "run", "print_figure", "speedup", "CLAIMS", "DEFAULT_SCALE"]

#: Scan-heavy mix: 70% range scans (the prefetch fan-out batching
#: accelerates) + 30% inserts (whose unlock_write pays two round trips
#: unbatched, one batched).
_SPEC = WorkloadSpec(
    name="batching",
    range_fraction=0.7,
    insert_fraction=0.3,
    selectivity=0.15,
)

#: Small pages and wide head groups: scans touch many leaves and the
#: prefetch fan-out is deep. (A head node holds one entry per leaf of its
#: group, so the interval must stay below the page fanout:
#: (512 - 40) // 16 = 29.)
_TREE = TreeConfig(page_size=512, head_node_interval=24, prefetch_window=24)

DEFAULT_SCALE = ExperimentScale(
    num_keys=20_000,
    num_memory_servers=8,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.006,
)


@dataclass(frozen=True)
class BatchingCell:
    """One (design, batching) cell of the grid."""

    design: str
    batched: bool
    #: Operations/second of simulated time.
    sim_ops_per_s: float
    #: Simulator events the run scheduled.
    sim_steps: int


def _measure(
    design: str, batched: bool, scale: ExperimentScale, seed: int, num_clients: int
) -> BatchingCell:
    """Run the mix on a fresh cluster whose per-message NIC cost
    (``message_overhead_s=1e-6``) dominates, so collapsing N messages into
    one is worth almost N."""
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(
        cluster_config(
            scale,
            seed,
            network=NetworkConfig(message_overhead_s=1.0e-6, doorbell_batching=batched),
            tree=_TREE,
        )
    )
    index = build_index(cluster, design, dataset)
    result = WorkloadRunner(cluster, dataset).run(
        index, _SPEC, num_clients=num_clients, warmup_s=scale.warmup_s,
        measure_s=scale.measure_s, seed=seed,
    )
    return BatchingCell(design, batched, result.throughput, cluster.sim.events_scheduled)


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    num_clients: int = 24,
) -> Dict[str, BatchingCell]:
    """Measure the design x batching grid; keyed ``design/(un)batched``."""
    seed = scale.seed if seed is None else seed
    return {
        f"{design}/{'batched' if batched else 'unbatched'}":
            _measure(design, batched, scale, seed, num_clients)
        for design in DESIGNS
        for batched in (True, False)
    }


def speedup(results: Mapping[str, BatchingCell], design: str) -> float:
    """Batched / unbatched simulated ops/s of *design*."""
    return (
        results[f"{design}/batched"].sim_ops_per_s
        / results[f"{design}/unbatched"].sim_ops_per_s
    )


def _extra_steps(results: Mapping[str, BatchingCell], design: str) -> int:
    """Batched minus unbatched simulator events of *design*."""
    return results[f"{design}/batched"].sim_steps - results[f"{design}/unbatched"].sim_steps


CLAIMS = (
    # The acceptance bar: batching buys the fine-grained design at least
    # 1.5x simulated throughput on the message-rate-bound profile.
    Claim("fg_batching_speedup", lambda r: speedup(r, "fine-grained"), ">=", 1.5),
    # The hybrid leaf level uses the same one-sided fan-out, so it must
    # benefit too (its RPC traversals dilute the win).
    Claim("hybrid_batching_speedup", lambda r: speedup(r, "hybrid"), ">", 1.2),
    # Coarse-grained is pure RPC: batching must be a no-op, not a tax.
    Claim("cg_batching_is_neutral",
          lambda r: abs(speedup(r, "coarse-grained") - 1.0), "<=", 0.05),
    # Batching removes messages, so it must remove simulation events ...
    Claim("fg_batching_removes_events", lambda r: _extra_steps(r, "fine-grained"), "<", 0),
    # ... and it must never schedule extra ones, on any design.
    Claim("batching_never_adds_events",
          lambda r: max(_extra_steps(r, design) for design in DESIGNS), "<=", 0),
)


def print_figure(results: Mapping[str, BatchingCell]) -> None:
    """Print the per-design batching series."""
    rows = {}
    for design in DESIGNS:
        batched, unbatched = results[f"{design}/batched"], results[f"{design}/unbatched"]
        rows[design] = [
            format_rate(unbatched.sim_ops_per_s),
            format_rate(batched.sim_ops_per_s),
            f"{speedup(results, design):.2f}x",
            f"{batched.sim_steps / unbatched.sim_steps:.2f}x",
        ]
    print_table(
        "Extension - doorbell batching (simulated ops/s, batched vs unbatched)",
        ("unbatched", "batched", "speedup", "events"),
        rows,
        col_header="",
    )
