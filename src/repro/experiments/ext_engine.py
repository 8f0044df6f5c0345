"""Extension: engine wall-clock benchmark — the simulator-speed grid.

Every other experiment reports *simulated* rates; this one measures the
engine itself: simulator events processed per wall-clock second across
the full design grid (coarse/fine/hybrid × doorbell batching on/off ×
observability on/off), on the message-rate-bound cluster of
:func:`repro.experiments.common.timed_pair`. It watches the host-side
fast paths — the event kernel's heap and event free-lists, the
zero-copy READ, the ``(raw_ptr, version)``-keyed decode cache, the
shared-master reads of read-only traversals, the WRITE+FAA unlock chain.

Methodology (docs/performance.md, "Engine profiling"):

* **Fixed work, not fixed time.** Cells run with ``ops_per_client=N``:
  every client executes exactly N operations and the measurement window
  is the whole run, so a cell's event count is deterministic given its
  seed and the wall clock measures the same computation on every rep.
* **Paired reps.** Each (batched, unbatched) pair is re-run ``reps``
  times, order alternating, garbage collector parked; a cell's speed is
  read off its fastest rep and the reps' spread is kept beside it.
* **Read-dominant mix.** 95% point lookups / 5% inserts: lookups drive
  the zero-copy read + decode-cache path at the highest event rate, the
  insert tail exercises the batched unlock chain.

Gated by ``python -m repro gate engine`` against ``BENCH_engine.json``:
event counts and simulated ops/s exactly, wall seconds on the one host
band, and the claims below.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.experiments.common import DESIGNS, TimedCell, format_rate, print_table, timed_pair
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale
from repro.workloads import WorkloadSpec

__all__ = ["run", "print_figure", "CLAIMS", "WALL_FIELDS", "DEFAULT_SCALE"]

#: Read-dominant engine mix: point lookups at the highest event rate,
#: plus an insert tail so the batched unlock chain is on the clock.
_SPEC = WorkloadSpec(name="pt95ins5", point_fraction=0.95, insert_fraction=0.05)

#: Only the cluster shape is read: the cells are fixed-work, not windowed.
DEFAULT_SCALE = ExperimentScale(
    num_keys=8_000, num_memory_servers=8, memory_servers_per_machine=2
)

WALL_FIELDS = ("wall_s",)


def _key(design: str, batched: bool, obs: bool) -> str:
    return f"{design}/{'batched' if batched else 'unbatched'}/{'obs' if obs else 'plain'}"


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: Optional[int] = None,
    num_clients: int = 24,
    ops_per_client: int = 100,
    reps: int = 5,
) -> Dict[str, TimedCell]:
    """Measure the twelve cells; keyed ``design/(un)batched/(obs|plain)``."""
    seed = scale.seed if seed is None else seed
    results: Dict[str, TimedCell] = {}
    for obs in (False, True):
        for design in DESIGNS:
            for cell in timed_pair(
                design, obs, scale, seed, _SPEC, num_clients, reps,
                ops_per_client=ops_per_client,
            ):
                results[_key(design, cell.batched, obs)] = cell
    return results


def _batch_ratio(results: Mapping[str, TimedCell], design: str) -> float:
    """Batched / unbatched wall-step throughput of *design*, hub off."""
    return (
        results[_key(design, True, False)].wall_steps_per_s
        / results[_key(design, False, False)].wall_steps_per_s
    )


def _obs_twin_mismatches(results: Mapping[str, TimedCell]) -> int:
    """Hub-on cells whose simulation differs from their hub-off twin's."""
    def simulated(cell: TimedCell):
        return cell.sim_steps, cell.sim_ops_per_s

    return sum(
        simulated(cell) != simulated(results[_key(cell.design, cell.batched, False)])
        for cell in results.values() if cell.obs
    )


CLAIMS = (
    # The hub never schedules events: a hub-on cell reproduces its
    # hub-off twin's simulated numbers exactly.
    Claim("obs_twin_identical", _obs_twin_mismatches, "==", 0),
    # Batching must not schedule extra events, ever.
    Claim("batching_never_adds_events",
          lambda r: max(r[_key(d, True, False)].sim_steps
                        - r[_key(d, False, False)].sim_steps for d in DESIGNS),
          "<=", 0),
    # ... nor cost host time per event. The floor pads for wall noise: on
    # the cells whose batched and unbatched simulations are identical
    # (coarse-grained) the ratio is pure noise around 1.0.
    Claim("batching_keeps_engine_speed",
          lambda r: min(_batch_ratio(r, d) for d in DESIGNS), ">=", 0.80),
)


def print_figure(results: Mapping[str, TimedCell]) -> None:
    """Print the engine-speed grid (obs-off rows, obs-on in the last column)."""
    rows = {}
    for design in DESIGNS:
        rows[design] = [
            format_rate(results[_key(design, True, False)].wall_steps_per_s),
            format_rate(results[_key(design, False, False)].wall_steps_per_s),
            f"{_batch_ratio(results, design):.2f}x",
            format_rate(results[_key(design, True, True)].wall_steps_per_s),
        ]
    print_table(
        "Extension - engine speed (simulator events per wall-second)",
        ("batched", "unbatched", "ratio", "obs batched"),
        rows,
        col_header="",
    )
