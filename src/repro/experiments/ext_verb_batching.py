"""Extension: doorbell-batched verb pipeline — what one doorbell buys.

The batching layer (:class:`repro.rdma.qp.VerbBatch`) chains one-sided
verbs to the same memory server behind a single doorbell: one request
message carries every work-queue entry, selective signaling collapses the
completions into one response message, and per-message fixed costs
(``message_overhead_s`` + headers) are paid per *batch* instead of per
verb. Its consumers are the scan prefetch fan-out
(``RemoteAccessor.read_nodes``) and the ``unlock_write`` WRITE+FAA pair.

This grid measures what that buys on a message-rate-bound cluster
(:func:`repro.experiments.common.timed_pair`) under a scan-heavy mix:
simulated ops/s and event counts per design, batching on vs off, plus the
wall seconds each cell took. Gated by ``python -m repro gate batching``
against ``BENCH_batching.json`` (docs/performance.md).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.experiments.common import DESIGNS, TimedCell, format_rate, print_table, timed_pair
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale
from repro.workloads import WorkloadSpec

__all__ = ["run", "print_figure", "speedup", "CLAIMS", "WALL_FIELDS", "DEFAULT_SCALE"]

#: Scan-heavy mix: 70% range scans (the prefetch fan-out batching
#: accelerates) + 30% inserts (whose unlock_write pays two round trips
#: unbatched, one batched).
_SPEC = WorkloadSpec(
    name="batching",
    range_fraction=0.7,
    insert_fraction=0.3,
    selectivity=0.15,
)

DEFAULT_SCALE = ExperimentScale(
    num_keys=20_000,
    num_memory_servers=8,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.006,
)

WALL_FIELDS = ("wall_s",)


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    num_clients: int = 24,
    reps: int = 3,
) -> Dict[str, TimedCell]:
    """Measure the design x batching grid; keyed ``design/(un)batched``."""
    seed = scale.seed if seed is None else seed
    results: Dict[str, TimedCell] = {}
    for design in DESIGNS:
        results[f"{design}/batched"], results[f"{design}/unbatched"] = timed_pair(
            design, False, scale, seed, _SPEC, num_clients, reps,
            warmup_s=scale.warmup_s, measure_s=scale.measure_s,
        )
    return results


def speedup(results: Mapping[str, TimedCell], design: str) -> float:
    """Batched / unbatched simulated ops/s of *design*."""
    return (
        results[f"{design}/batched"].sim_ops_per_s
        / results[f"{design}/unbatched"].sim_ops_per_s
    )


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
    # Batching removes messages, so it must remove simulation events.
    Claim("fg_batching_removes_events",
          lambda r: r["fine-grained/batched"].sim_steps
          - r["fine-grained/unbatched"].sim_steps, "<", 0),
)


def print_figure(results: Mapping[str, TimedCell]) -> None:
    """Print the per-design batching series."""
    rows = {}
    for design in DESIGNS:
        batched = results[f"{design}/batched"]
        rows[design] = [
            format_rate(results[f"{design}/unbatched"].sim_ops_per_s),
            format_rate(batched.sim_ops_per_s),
            f"{speedup(results, design):.2f}x",
            format_rate(batched.wall_steps_per_s),
        ]
    print_table(
        "Extension - doorbell batching (simulated ops/s, batched vs unbatched)",
        ("unbatched", "batched", "speedup", "steps/s"),
        rows,
        col_header="",
    )
