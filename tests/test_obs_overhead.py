"""The hub's surcharge as an exact count: a gate that cannot flake.

The same seeded fine-grained point workload runs hub-off and hub-on under
``cProfile``; the simulated outcome must be identical, and the ratio of
function calls (Python + C) made inside ``runner.run`` must stay under
``CALL_RATIO_BOUND``. A call count repeats to the last digit on any host,
so this is the tight gate on "cheap enough to leave on" (ROADMAP north
star 4); the gate's wall-clock band (``repro.experiments.gate.HOST_BAND``)
only catches gross slowdowns.

Numbers, on this test's inputs (8 clients x 50 ops, seed 7):

* eager span trees (377182d):              hub-on / hub-off = 1.551   (169 041 / 109 021 calls)
* flat per-op event log (PR 15):            hub-on / hub-off = 1.2389  (135 071 / 109 021 calls)
* the tracer reads the hub, no ``_trace``
  frame, no forwarding generators (PR 18):  hub-on / hub-off = 1.2357  (130 255 / 105 413 calls)

and on nambench's ``fg_point_uniform`` inputs (120 x 100, seed 1):
1.553 (419.64 / 270.21), 1.226 (331.27 / 270.23), 1.222 (319.25 / 261.22).
The bound sits a few percent above the current number: a hook that adds
one call per verb (+3 on 263.5 hub-off calls/op) moves the ratio by 0.011;
three of those trip it. (Counted on CPython 3.11; other versions count a
few builtins differently on both sides of the ratio.)
"""

from __future__ import annotations

import cProfile
import pstats

from repro import Cluster, ClusterConfig, FineGrainedIndex
from repro.config import ObservabilityConfig
from repro.workloads import WorkloadRunner, generate_dataset, workload_a

CALL_RATIO_BOUND = 1.27


def profiled_run(hub: bool):
    """One seeded run; returns its simulated outcome, the number of calls
    made inside ``runner.run``, and the run's result."""
    cluster = Cluster(
        ClusterConfig(seed=7, observability=ObservabilityConfig(enabled=hub))
    )
    dataset = generate_dataset(20_000, gap=8)
    index = FineGrainedIndex.build(cluster, "idx", dataset.pairs())
    runner = WorkloadRunner(cluster, dataset)
    profiler = cProfile.Profile()
    result = profiler.runcall(
        runner.run, index, workload_a(), num_clients=8, ops_per_client=50, seed=7
    )
    calls = sum(row[1] for row in pstats.Stats(profiler).stats.values())
    outcome = (
        result.window_s,
        result.op_counts,
        result.latencies,
        result.network,
        cluster.sim.events_scheduled,
    )
    return outcome, calls, result


def test_hub_on_call_ratio_stays_under_the_bound():
    off_outcome, off_calls, off = profiled_run(hub=False)
    on_outcome, on_calls, on = profiled_run(hub=True)
    assert off.total_ops == on.total_ops == 400
    assert off.observability is None and on.observability["ops_observed"] == 400
    assert on_outcome == off_outcome, "the hub moved the simulation"
    ratio = on_calls / off_calls
    assert 1.0 < ratio < CALL_RATIO_BOUND, (
        f"hub-on makes {on_calls} calls for hub-off's {off_calls}: "
        f"ratio {ratio:.3f}, bound {CALL_RATIO_BOUND}"
    )
    assert CALL_RATIO_BOUND < 1.30
