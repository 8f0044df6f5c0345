"""The bounded schedule explorer and the simulator's scheduler hook.

The acceptance criteria live here: with the lock guard mutated out the
explorer must rediscover the PR 3 bypass race within its default budget,
and with the guard intact every scenario must come back with zero
violations. The rest pins the machinery those results depend on — the
controlled scheduler's replay semantics, byte-identical simulator
behavior when no scheduler is installed, determinism of exploration, and
signature-based pruning.
"""

from __future__ import annotations

import pytest

from repro import Cluster, ClusterConfig, FineGrainedIndex
from repro.analysis.namsan.events import TraceCollector
from repro.analysis.namsan.explore import (
    SCENARIOS,
    ControlledScheduler,
    ScheduleViolation,
    explore,
)
from repro.errors import AnalysisError
from repro.workloads import generate_dataset


# -- the acceptance criteria ------------------------------------------------


def test_explorer_rediscovers_lock_bypass_race(namsan_explore):
    """Mutating the guard out reintroduces the PR 3 race; the explorer
    must find it without being told where to look."""
    report = namsan_explore("lock-bypass", mutate_guard=True)
    assert not report.ok
    kinds = {violation.kind for violation in report.violations}
    assert "race" in kinds
    # The race names the contended leaf, not some unrelated address.
    first = next(v for v in report.violations if v.kind == "race")
    assert "WRITE" in first.detail


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_guard_intact_scenarios_are_clean(namsan_explore, scenario):
    report = namsan_explore(scenario)
    assert report.ok, report.summary() + "\n" + "\n".join(
        v.describe() for v in report.violations
    )
    assert report.runs_executed >= 1
    assert report.schedules_distinct >= 1


# -- determinism and the scheduler hook -------------------------------------


def test_explore_is_deterministic(namsan_explore):
    first = namsan_explore("split-under-insert", runs=8)
    second = namsan_explore("split-under-insert", runs=8)
    assert first == second


def _trace_workload(scheduler):
    """A small two-client insert race, traced; returns (events, end time)."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=5))
    dataset = generate_dataset(40, gap=2)
    index = FineGrainedIndex.build(cluster, "hook", *dataset.columns())
    collector = TraceCollector().attach(cluster)
    cluster.sim.scheduler = scheduler
    try:
        procs = [
            cluster.spawn(
                index.session(cluster.new_compute_server()).insert(
                    dataset.key_at(10 + i) + 1, 500 + i
                )
            )
            for i in range(2)
        ]
        cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    finally:
        cluster.sim.scheduler = None
    collector.detach()
    events = [
        (event.actor, event.server, event.offset, event.verb, event.time)
        for event in collector.events
    ]
    return events, cluster.now


def test_default_scheduler_is_byte_identical_to_none():
    """A window-0 scheduler that always picks 0 reproduces the plain heap
    order exactly — installing the hook without using it changes nothing."""
    baseline_events, baseline_now = _trace_workload(None)
    hooked_events, hooked_now = _trace_workload(
        ControlledScheduler(window=0.0)
    )
    assert hooked_events == baseline_events
    assert hooked_now == baseline_now


def test_window_reordering_defers_but_never_rewinds_time():
    """Out-of-window picks fire events late; the clock stays monotone."""
    events, _now = _trace_workload(ControlledScheduler({2: 1, 5: 1}))
    times = [time for *_rest, time in events]
    assert times == sorted(times)


def test_controlled_scheduler_replays_sparse_decisions():
    scheduler = ControlledScheduler({1: 2})
    assert scheduler.choose(0.0, ["a", "b"]) == 0       # no override
    assert scheduler.choose(0.0, ["a", "b", "c"]) == 2  # replayed
    assert scheduler.choose(0.0, ["a", "b"]) == 0       # past overrides
    assert scheduler.counts == [2, 3, 2]
    assert scheduler.choices == [0, 2, 0]


def test_controlled_scheduler_clamps_to_arity():
    scheduler = ControlledScheduler([7])
    assert scheduler.decisions == {0: 7}  # sequence shorthand
    assert scheduler.choose(0.0, ["a", "b"]) == 1


# -- exploration bookkeeping ------------------------------------------------


def test_explore_prunes_equivalent_schedules(namsan_explore):
    """Most reorderings do not change the sync-op order; pruning must
    collapse them instead of expanding every one."""
    report = namsan_explore("lock-steal", runs=10)
    assert report.pruned >= 1
    assert report.schedules_distinct + report.pruned == report.runs_executed


def test_violation_schedule_labels():
    assert ScheduleViolation("race", "x").describe() == "[schedule default] race: x"
    labeled = ScheduleViolation("race", "x", schedule=((3, 1), (9, 2)))
    assert labeled.describe() == "[schedule 3:1,9:2] race: x"


def test_explore_rejects_bad_input():
    with pytest.raises(AnalysisError, match="unknown scenario"):
        explore("nonesuch")
    with pytest.raises(AnalysisError, match="budget"):
        explore("lock-bypass", runs=0)
    with pytest.raises(AnalysisError, match="budget"):
        explore("lock-bypass", depth=-1)
