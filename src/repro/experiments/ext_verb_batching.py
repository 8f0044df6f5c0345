"""Extension: doorbell-batched verb pipeline — speedup and perf regression.

The batching layer (:class:`repro.rdma.qp.VerbBatch`) chains one-sided
verbs to the same memory server behind a single doorbell: one request
message carries every work-queue entry, selective signaling collapses the
completions into one response message, and per-message fixed costs
(``message_overhead_s`` + headers) are paid per *batch* instead of per
verb. Its consumers are the scan prefetch fan-out
(``RemoteAccessor.read_nodes``) and the ``unlock_write`` WRITE+FAA pair.

This harness measures what that buys on a message-rate-bound cluster —
small pages, many leaves per scan, fast links — and doubles as the
perf-regression gate:

* **simulated ops/s** per design, batching on vs off (deterministic);
* **wall-clock sim-steps/s** — simulator events processed per wall-second,
  the engine-speed metric that catches host-side regressions from the
  zero-copy hot paths (``Node.to_bytes``/``from_bytes``, region views,
  tracer no-op path).

``--check BASELINE`` compares a run against a committed baseline JSON and
exits non-zero if either metric regressed more than ``TOLERANCE`` (CI's
``smoke (batching)`` job), or if the fine-grained batching speedup fell below
``SPEEDUP_FLOOR``. ``--update-baseline BASELINE`` rewrites the file.

Run with ``python -m repro.experiments.ext_verb_batching``.
"""

from __future__ import annotations

import argparse
import json
import time  # namsan: allow[N01] — wall-clock engine-speed measurement
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import ClusterConfig, NetworkConfig, ObservabilityConfig, TreeConfig
from repro.experiments.common import DESIGNS, build_index, format_rate, print_table
from repro.experiments.ext_engine import OBS_WALL_TOLERANCE
from repro.experiments.scale import ExperimentScale
from repro.nam.cluster import Cluster
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

__all__ = [
    "BatchingCell",
    "BatchingResult",
    "run",
    "print_figure",
    "check_against_baseline",
    "main",
    "SPEEDUP_FLOOR",
    "TOLERANCE",
    "OBS_WALL_TOLERANCE",
]

#: Required fine-grained batched/unbatched simulated-ops/s ratio.
SPEEDUP_FLOOR = 1.5
#: Allowed regression of the deterministic metrics (simulated ops/s and
#: per-run event counts) vs the committed baseline.
TOLERANCE = 0.20
#: Allowed regression of the wall-clock engine speed (events processed
#: per wall-second, aggregated over the whole grid). Wider than TOLERANCE
#: because wall time on shared CI runners is noisy; the deterministic
#: ``sim_steps`` gate catches "schedules more events" regressions at the
#: tight tolerance, so this only needs to catch gross interpreter-side
#: slowdowns (e.g. a zero-copy path reverting to per-verb copies).
WALL_TOLERANCE = 0.40
# ``--obs`` gates the wall-clock engine speed of a *metrics-enabled* run
# against the same (metrics-off) baseline at ``OBS_WALL_TOLERANCE``,
# defined once in ext_engine. The deterministic metrics are still gated at
# TOLERANCE in that mode: metric/span bookkeeping never schedules
# simulation events, so an enabled run must reproduce the baseline's
# simulated numbers.

#: Scan-heavy mix: 70% range scans (the prefetch fan-out batching
#: accelerates) + 30% inserts (whose unlock_write pays two round trips
#: unbatched, one batched).
_SPEC = WorkloadSpec(
    name="batching",
    range_fraction=0.7,
    insert_fraction=0.3,
    selectivity=0.15,
)


@dataclass
class BatchingCell:
    """One (design, batching on/off) measurement."""

    design: str
    batched: bool
    #: Operations/second of simulated time (deterministic given a seed).
    sim_ops_per_s: float
    #: Simulator events the run scheduled (deterministic given a seed).
    sim_steps: int
    #: Wall-clock seconds the run took (host-dependent).
    wall_s: float

    @property
    def wall_steps_per_s(self) -> float:
        """Simulator events processed per wall-clock second."""
        return self.sim_steps / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class BatchingResult:
    """One design's batched vs unbatched pair."""

    design: str
    batched: BatchingCell
    unbatched: BatchingCell

    @property
    def speedup(self) -> float:
        """Batched / unbatched simulated ops/s."""
        if self.unbatched.sim_ops_per_s <= 0:
            return float("inf")
        return self.batched.sim_ops_per_s / self.unbatched.sim_ops_per_s


#: Message-rate-bound profile: the per-message NIC processing time is the
#: dominant cost, so collapsing N messages into one is worth almost N.
#: (The default profile is bandwidth/latency-heavy and shows a smaller,
#: still positive, win.)
_NETWORK = NetworkConfig(message_overhead_s=1.0e-6)
#: Small pages and wide head groups: scans touch many leaves and the
#: prefetch fan-out is deep — the shape batching exists for. (A head node
#: holds one entry per leaf of its group, so the interval must stay below
#: the page fanout: (512 - 40) // 16 = 29.)
_TREE = TreeConfig(page_size=512, head_node_interval=24, prefetch_window=24)

DEFAULT_SCALE = ExperimentScale(
    num_keys=20_000,
    num_memory_servers=8,
    memory_servers_per_machine=2,
    warmup_s=0.001,
    measure_s=0.006,
)

#: Tiny grid for the CI smoke (batching) job.
SMOKE = ExperimentScale(
    num_keys=6_000,
    num_memory_servers=8,
    memory_servers_per_machine=2,
    warmup_s=0.0005,
    measure_s=0.003,
)


def _measure_cell(
    design: str,
    batched: bool,
    scale: ExperimentScale,
    num_clients: int,
    seed: int,
    obs: bool = False,
) -> BatchingCell:
    dataset = generate_dataset(scale.num_keys, scale.gap)
    config = ClusterConfig(
        num_memory_servers=scale.num_memory_servers,
        memory_servers_per_machine=min(
            scale.memory_servers_per_machine, scale.num_memory_servers
        ),
        network=NetworkConfig(
            message_overhead_s=_NETWORK.message_overhead_s,
            doorbell_batching=batched,
        ),
        tree=_TREE,
        seed=seed,
        observability=ObservabilityConfig(enabled=obs),
    )
    cluster = Cluster(config)
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset)
    wall_start = time.perf_counter()  # namsan: allow[N01]
    result = runner.run(
        index,
        _SPEC,
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    wall_s = time.perf_counter() - wall_start  # namsan: allow[N01]
    return BatchingCell(
        design=design,
        batched=batched,
        sim_ops_per_s=result.throughput,
        sim_steps=cluster.sim.events_scheduled,
        wall_s=wall_s,
    )


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    num_clients: int = 24,
    seed: Optional[int] = None,
    obs: bool = False,
) -> Dict[str, BatchingResult]:
    """Measure the batched-vs-unbatched grid; returns per-design results.

    ``obs=True`` runs every cell with the observability hub attached —
    simulated numbers must match an ``obs=False`` run exactly (the hub
    never schedules events); only wall time may differ.
    """
    seed = scale.seed if seed is None else seed
    results: Dict[str, BatchingResult] = {}
    for design in DESIGNS:
        results[design] = BatchingResult(
            design=design,
            batched=_measure_cell(design, True, scale, num_clients, seed, obs),
            unbatched=_measure_cell(design, False, scale, num_clients, seed, obs),
        )
    return results


def results_to_json(results: Dict[str, BatchingResult]) -> Dict:
    """A JSON-serializable snapshot (the BENCH_batching.json payload)."""
    payload: Dict = {"designs": {}}
    total_steps = 0
    total_wall = 0.0
    for design, pair in results.items():
        payload["designs"][design] = {
            "batched": {
                **asdict(pair.batched),
                "wall_steps_per_s": pair.batched.wall_steps_per_s,
            },
            "unbatched": {
                **asdict(pair.unbatched),
                "wall_steps_per_s": pair.unbatched.wall_steps_per_s,
            },
            "speedup": pair.speedup,
        }
        for cell in (pair.batched, pair.unbatched):
            total_steps += cell.sim_steps
            total_wall += cell.wall_s
    payload["wall_steps_per_s"] = total_steps / total_wall if total_wall else 0.0
    return payload


def check_against_baseline(
    results: Dict[str, BatchingResult],
    baseline: Dict,
    wall_tolerance: float = WALL_TOLERANCE,
) -> List[str]:
    """Regression failures of *results* vs a committed *baseline* payload.

    Deterministic metrics are gated per cell at ``TOLERANCE``: simulated
    ops/s must not drop below ``(1 - TOLERANCE) *`` baseline, and the
    per-run simulator event count must not grow past ``(1 + TOLERANCE) *``
    baseline (more events = more engine work per run, deterministically).
    The wall-clock engine speed is gated as a grid-wide aggregate at the
    noise-padded ``WALL_TOLERANCE``. Improvements never fail. The
    fine-grained speedup must additionally clear ``SPEEDUP_FLOOR`` in
    absolute terms.
    """
    failures: List[str] = []
    total_steps = 0
    total_wall = 0.0
    for design, pair in results.items():
        base = baseline.get("designs", {}).get(design)
        if base is None:
            failures.append(f"{design}: missing from baseline")
            continue
        for mode, cell in (("batched", pair.batched), ("unbatched", pair.unbatched)):
            total_steps += cell.sim_steps
            total_wall += cell.wall_s
            reference = base[mode].get("sim_ops_per_s", 0.0)
            if reference > 0 and cell.sim_ops_per_s < (1.0 - TOLERANCE) * reference:
                failures.append(
                    f"{design}/{mode}: sim_ops_per_s regressed "
                    f"{cell.sim_ops_per_s:.0f} < "
                    f"{(1.0 - TOLERANCE) * reference:.0f} "
                    f"(baseline {reference:.0f}, tolerance {TOLERANCE:.0%})"
                )
            base_steps = base[mode].get("sim_steps", 0)
            if base_steps > 0 and cell.sim_steps > (1.0 + TOLERANCE) * base_steps:
                failures.append(
                    f"{design}/{mode}: sim_steps grew "
                    f"{cell.sim_steps} > {(1.0 + TOLERANCE) * base_steps:.0f} "
                    f"(baseline {base_steps}, tolerance {TOLERANCE:.0%})"
                )
    base_rate = baseline.get("wall_steps_per_s", 0.0)
    rate = total_steps / total_wall if total_wall else 0.0
    if base_rate > 0 and rate < (1.0 - wall_tolerance) * base_rate:
        failures.append(
            f"grid: wall_steps_per_s regressed {rate:.0f} < "
            f"{(1.0 - wall_tolerance) * base_rate:.0f} "
            f"(baseline {base_rate:.0f}, tolerance {wall_tolerance:.0%})"
        )
    fine = results.get("fine-grained")
    if fine is not None and fine.speedup < SPEEDUP_FLOOR:
        failures.append(
            f"fine-grained: batching speedup {fine.speedup:.2f}x is below "
            f"the {SPEEDUP_FLOOR:.1f}x floor"
        )
    return failures


def print_figure(results: Dict[str, BatchingResult]) -> None:
    """Print the per-design batching series."""
    columns = ("unbatched", "batched", "speedup", "steps/s")
    rows = {}
    for design, pair in results.items():
        rows[design] = [
            format_rate(pair.unbatched.sim_ops_per_s),
            format_rate(pair.batched.sim_ops_per_s),
            f"{pair.speedup:.2f}x",
            format_rate(pair.batched.wall_steps_per_s),
        ]
    print_table(
        "Extension - doorbell batching (simulated ops/s, batched vs unbatched)",
        columns,
        rows,
        col_header="",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="doorbell batching speedup + perf regression gate"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI grid (faster)"
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "run with observability enabled; --check then gates wall speed "
            "at the overhead ceiling while the simulated numbers must still "
            "match the (metrics-off) baseline"
        ),
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
    scale = SMOKE if args.smoke else DEFAULT_SCALE
    results = run(scale=scale, seed=args.seed, obs=args.obs)
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
        failures = check_against_baseline(
            results,
            baseline,
            wall_tolerance=OBS_WALL_TOLERANCE if args.obs else WALL_TOLERANCE,
        )
        for failure in failures:
            print(f"PERF REGRESSION: {failure}")
        if failures:
            return 1
        print(
            f"perf check OK vs {args.check} "
            f"(tolerance {TOLERANCE:.0%}, fine-grained speedup "
            f"{results['fine-grained'].speedup:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
