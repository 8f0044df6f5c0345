"""The hub's surcharge as an exact count: a gate that cannot flake.

The same seeded fine-grained point workload runs hub-off and hub-on under
``cProfile``; the simulated outcome must be identical, and the function
calls (Python + C) the hub adds inside ``runner.run`` must stay under
``SURCHARGE_BOUND`` per operation. A call count repeats to the last digit
on any host, so this is the tight gate on "cheap enough to leave on"
(ROADMAP north star 4); the gate's wall-clock band
(``repro.experiments.gate.HOST_BAND``) only catches gross slowdowns.

The surcharge is gated as a difference, not as the hub-on / hub-off ratio
it used to be: a cheaper kernel shrinks the denominator and fails a ratio
although the hub did not move (PR 19: 1.236 -> 1.372 at an unchanged 62
calls/op). The old bound of 1.27 was 71.2 calls/op on these inputs. The
hub-off count has a ceiling of its own, ``HUB_OFF_CEILING``, so what the
kernel gained cannot erode silently either.

Numbers, on this test's inputs (8 clients x 50 ops, seed 7), calls per
operation hub-off / surcharge / ratio:

* eager span trees (377182d):              272.6 / 150.1 / 1.551   (169 041 / 109 021 calls)
* flat per-op event log (PR 15):            272.6 /  65.1 / 1.2389  (135 071 / 109 021 calls)
* the tracer reads the hub, no ``_trace``
  frame, no forwarding generators (PR 18):  263.5 /  62.1 / 1.2357  (130 255 / 105 413 calls)
* a sleep is a heap entry, not a pooled
  ``Timeout``; one frame fewer per root
  descent (PR 19):                          166.9 /  62.1 / 1.3720  ( 91 615 /  66 773 calls)
* one decode memo per cluster, one read
  site in the descent with no
  ``_read_unlocked`` frame (PR 21):         149.4 /  62.1 / 1.4157  ( 84 606 /  59 764 calls)

and on nambench's ``fg_point_uniform`` inputs (120 x 100, seed 1):
1.553 (419.64 / 270.21), 1.226 (331.27 / 270.23), 1.222 (319.25 / 261.22),
1.352 (222.95 / 164.92), 1.400 (202.97 / 144.94). Both bounds sit a few
percent above the current numbers: a hook that adds one call per verb is
+3 calls/op; three of those trip either. (Counted on CPython 3.11; other
versions count a few builtins differently on both sides.)

The second gate is PR 21's, on the same run: the decode memo is the
cluster's, so the eight clients together call ``Node.from_bytes`` once per
page *image* they touch — on a read-only workload once per page touched
(283 decodes for 1 200 page reads here; 483 when each client kept a memo
of its own) — whatever the number of clients. Also an exact count.
"""

from __future__ import annotations

import cProfile
import pstats

from repro import Cluster, ClusterConfig, FineGrainedIndex
from repro.config import ObservabilityConfig
from repro.workloads import WorkloadRunner, generate_dataset, workload_a

#: Calls per operation the hub may add, and the hub-off run may make.
SURCHARGE_BOUND = 70
HUB_OFF_CEILING = 155


def profiled_run(hub: bool):
    """One seeded run; returns its simulated outcome, the number of calls
    made inside ``runner.run``, the run's result, and the decode census
    ``(Node.from_bytes calls, pages in the cluster's decode memo)``."""
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
    stats = pstats.Stats(profiler).stats
    calls = sum(row[1] for row in stats.values())
    outcome = (
        result.window_s,
        result.op_counts,
        result.latencies,
        result.network,
        cluster.sim.events_scheduled,
    )
    decodes = sum(
        row[1]
        for (path, _line, name), row in stats.items()
        if name == "from_bytes" and path.endswith("node.py")
    )
    return outcome, calls, result, (decodes, len(cluster.decode_memo))


def test_hub_on_call_ratio_stays_under_the_bound():
    off_outcome, off_calls, off, (decodes, memoized) = profiled_run(hub=False)
    on_outcome, on_calls, on, _ = profiled_run(hub=True)
    assert off.total_ops == on.total_ops == 400
    assert off.observability is None and on.observability["ops_observed"] == 400
    assert on_outcome == off_outcome, "the hub moved the simulation"
    surcharge = (on_calls - off_calls) / 400
    assert 0 < surcharge < SURCHARGE_BOUND, (
        f"hub-on makes {on_calls} calls for hub-off's {off_calls}: "
        f"{surcharge:.1f} more per operation, bound {SURCHARGE_BOUND}"
    )
    assert off_calls / 400 <= HUB_OFF_CEILING, (
        f"hub-off makes {off_calls / 400:.1f} calls per operation, "
        f"ceiling {HUB_OFF_CEILING}"
    )
    # Read-only, so every page has one image, and the memo is keyed by page:
    # each is decoded once per cluster, not once per client that reads it.
    assert 0 < decodes == memoized, (decodes, memoized)
