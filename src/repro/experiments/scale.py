"""Scale-down knobs for the reproduced experiments.

The paper's testbed runs 100M-1B keys against 8 InfiniBand machines for
minutes; a pure-Python discrete-event simulation cannot, so every
experiment harness accepts an :class:`ExperimentScale`. ``DEFAULT``
approximates the paper's sweep shape (client counts 10..240, three
selectivities); ``SMALL`` is the fast grid ``--small`` runs and the gate
records ``BENCH_paper.json`` at. Absolute numbers shrink with the data; the *relative* shapes —
who wins, where curves flatten, what skew does — are scale-invariant
(see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ExperimentScale", "DEFAULT", "SMALL", "measure_window"]


@dataclass(frozen=True)
class ExperimentScale:
    """Grid sizes and simulated-time windows for one experiment run."""

    num_keys: int = 20_000  # paper: 100M
    gap: int = 8
    num_memory_servers: int = 4
    memory_servers_per_machine: int = 2
    clients: Tuple[int, ...] = (10, 20, 40, 80, 160, 240)
    selectivities: Tuple[float, ...] = (0.001, 0.01, 0.1)
    #: Figure 10's data sizes (paper: 1M / 10M / 100M).
    data_sizes: Tuple[int, ...] = (2_000, 20_000, 60_000)
    #: Figure 11's memory-server sweep.
    servers_sweep: Tuple[int, ...] = (2, 4, 6, 8)
    warmup_s: float = 0.001
    measure_s: float = 0.004
    seed: int = 42


DEFAULT = ExperimentScale()

SMALL = ExperimentScale(
    num_keys=8_000,
    clients=(10, 40, 120),
    selectivities=(0.001, 0.01),
    data_sizes=(2_000, 8_000),
    servers_sweep=(2, 4, 8),
    measure_s=0.003,
)


def measure_window(scale: ExperimentScale, selectivity: float = 0.0) -> float:
    """Measurement window long enough for several completions per client.

    High-selectivity range scans take milliseconds each, so their windows
    stretch proportionally to the selectivity.
    """
    return max(scale.measure_s, selectivity * 0.25)
