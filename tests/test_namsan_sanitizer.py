"""The happens-before race sanitizer: model unit tests, clean-workload
certification, and the deliberately racy accessor it must catch.

Three layers:

1. **Synthetic traces** pin the happens-before model event by event:
   lock-word CAS chains order critical sections, a locked page write-back
   is a release store (so lease steals see a crashed holder's write),
   atomics never race, optimistic reads are exempt by default.

2. **Real workloads** — the chaos and lock-recovery scenarios from
   ``test_hybrid_chaos.py`` / ``test_lock_recovery.py`` — are traced end
   to end and must produce *zero* races at replication factor 1 and 2.

3. **The regression**: an accessor that writes a fine-grained leaf while
   somebody else holds its lock. The workload "passes" (values land),
   but the sanitizer must fail it with a RaceReport naming the two
   conflicting verb events.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    FineGrainedIndex,
    HybridIndex,
    RetryConfig,
    ServerCrash,
    verify_index,
)
from repro.analysis.namsan.events import AccessEvent, TraceCollector
from repro.analysis.namsan.sanitizer import RaceDetector, detect_races
from repro.btree.pointers import RemotePointer
from repro.index.accessors import RemoteAccessor
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.ConfigurationWarning"
)

LEASE_S = 0.0005

MIXED = WorkloadSpec(
    name="namsan-mix",
    point_fraction=0.5,
    range_fraction=0.1,
    insert_fraction=0.3,
    delete_fraction=0.1,
    selectivity=0.005,
)


# --------------------------------------------------------------------------- #
# 1. synthetic traces                                                          #
# --------------------------------------------------------------------------- #

def _trace(*specs):
    """Build events from (actor, kind, verb, offset, length) tuples."""
    return [
        AccessEvent(
            seq=seq,
            actor=actor,
            kind=kind,
            verb=verb,
            server=0,
            offset=offset,
            length=length,
            time=seq * 1e-6,
        )
        for seq, (actor, kind, verb, offset, length) in enumerate(specs)
    ]


def test_unordered_overlapping_writes_race():
    races = detect_races(
        _trace(
            ("c0", "write", "WRITE", 0x100, 64),
            ("c1", "write", "WRITE", 0x120, 64),  # overlaps [0x120, 0x140)
        )
    )
    assert len(races) == 1
    race = races[0]
    assert {race.first.actor, race.second.actor} == {"c0", "c1"}
    assert "unordered" in race.describe()


def test_disjoint_writes_do_not_race():
    assert (
        detect_races(
            _trace(
                ("c0", "write", "WRITE", 0x100, 64),
                ("c1", "write", "WRITE", 0x140, 64),
            )
        )
        == []
    )


def test_same_actor_never_races():
    assert (
        detect_races(
            _trace(
                ("c0", "write", "WRITE", 0x100, 64),
                ("c0", "write", "WRITE", 0x100, 64),
            )
        )
        == []
    )


def test_lock_word_cas_chain_orders_critical_sections():
    """The paper's lock protocol, two clients in turn: CAS(lock), page
    WRITE, FAA(unlock). The unlocking FAA and the next CAS on the same
    word form the release/acquire chain — no race."""
    assert (
        detect_races(
            _trace(
                ("c0", "atomic", "CAS", 0x100, 8),
                ("c0", "write", "WRITE", 0x100, 64),
                ("c0", "atomic", "FETCH_ADD", 0x100, 8),
                ("c1", "atomic", "CAS", 0x100, 8),
                ("c1", "write", "WRITE", 0x100, 64),
                ("c1", "atomic", "FETCH_ADD", 0x100, 8),
            )
        )
        == []
    )


def test_write_without_lock_races_with_locked_writer():
    """Same protocol, but a third client writes the page without ever
    touching the lock word: both ordered writers race with it."""
    races = detect_races(
        _trace(
            ("c0", "atomic", "CAS", 0x100, 8),
            ("c0", "write", "WRITE", 0x100, 64),
            ("c0", "atomic", "FETCH_ADD", 0x100, 8),
            ("rogue", "write", "WRITE", 0x110, 32),
            ("c1", "atomic", "CAS", 0x100, 8),
            ("c1", "write", "WRITE", 0x100, 64),
            ("c1", "atomic", "FETCH_ADD", 0x100, 8),
        )
    )
    assert len(races) == 2
    assert all("rogue" in (r.first.actor, r.second.actor) for r in races)


def test_page_writeback_is_release_store_for_lease_steal():
    """A holder crashes after its page write but before unlocking; the
    stealer's CAS on the (covered) version word must see that write —
    recovery is not a race."""
    assert (
        detect_races(
            _trace(
                ("c0", "atomic", "CAS", 0x100, 8),     # victim locks
                ("c0", "write", "WRITE", 0x100, 64),   # ...writes, then dies
                ("c1", "atomic", "CAS", 0x100, 8),     # lease steal
                ("c1", "write", "WRITE", 0x100, 64),
                ("c1", "atomic", "FETCH_ADD", 0x100, 8),
            )
        )
        == []
    )


def test_atomics_never_race():
    """Contending FAAs (allocation words) and failed CASes are the
    synchronization vocabulary, not data accesses."""
    assert (
        detect_races(
            _trace(
                ("c0", "atomic", "FETCH_ADD", 0x8, 8),
                ("c1", "atomic", "FETCH_ADD", 0x8, 8),
                ("c2", "atomic", "CAS", 0x8, 8),
            )
        )
        == []
    )


def test_optimistic_reads_exempt_unless_asked():
    trace = _trace(
        ("c0", "write", "WRITE", 0x100, 64),
        ("c1", "read", "READ", 0x100, 64),
    )
    assert detect_races(trace) == []
    assert len(detect_races(trace, report_read_races=True)) == 1


def test_report_cap_stops_flooding():
    events = _trace(
        *[("c%d" % i, "write", "WRITE", 0x100, 64) for i in range(20)]
    )
    detector = RaceDetector()
    detector.feed_all(events)
    assert 0 < len(detector.races) <= 64
    assert not detector.ok
    assert "RACES" in detector.summary()


# --------------------------------------------------------------------------- #
# 2. real workloads are race-free                                              #
# --------------------------------------------------------------------------- #

def _collect(cluster):
    return TraceCollector().attach(cluster)


@pytest.mark.parametrize("factor", [1, 2])
def test_hybrid_chaos_workload_has_no_races(factor):
    """The chaos-suite workload, traced: mixed ops, message faults, and
    (at factor 2) a destructive crash/restart — zero data races."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=3,
            memory_servers_per_machine=1,
            replication_factor=factor,
            # 2 per compute server spreads 6 clients over 3 compute
            # servers: multiple writer *actors*, which is what makes the
            # happens-before check non-trivial.
            clients_per_compute_server=2,
            seed=43,
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = HybridIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    collector = _collect(cluster)
    crashes = (
        (ServerCrash(1, at_s=0.004, down_for_s=0.002),) if factor > 1 else ()
    )
    injector = cluster.attach_faults(
        FaultPlan(
            seed=13,
            drop_probability=0.02,
            delay_probability=0.05,
            delay_s=30e-6,
            duplicate_probability=0.02,
            server_crashes=crashes,
        )
    )
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, MIXED, num_clients=6, warmup_s=0.001, measure_s=0.006, seed=17
    )
    assert result.total_ops > 0
    injector.quiesce()
    report = verify_index(cluster, index)
    assert report.ok, report.violations

    detector = RaceDetector().feed_all(collector.events)
    assert detector.ok, "\n".join(r.describe() for r in detector.races)
    assert detector.events_seen > 1000
    actors = {event.actor for event in collector.events}
    assert len([a for a in actors if a.startswith("c")]) >= 3


def test_lock_steal_recovery_has_no_races():
    """The lock-recovery scenario, traced: a client dies inside a leaf
    critical section, a survivor lease-steals. The page write-back
    release-store is what keeps this race-free — exactly the
    interleaving the model was built for."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=19,
            retry=RetryConfig(lock_lease_s=LEASE_S),
        )
    )
    dataset = generate_dataset(400, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    collector = _collect(cluster)
    injector = cluster.attach_faults(FaultPlan())
    key = dataset.key_at(11)

    tree = index.tree_for(cluster.new_compute_server())
    raw_ptr, _leaf = cluster.execute(tree._descend_to_level(key, 0))
    pointer = RemotePointer.from_raw(raw_ptr)
    region = cluster.memory_server(pointer.server_id).region

    victim = cluster.new_compute_server()
    proc = cluster.spawn(index.session(victim).insert(key, 111))
    injector.register_client(victim.server_id, proc)
    deadline = cluster.now + 0.01
    while cluster.now < deadline and not region.read_u64(pointer.offset) & 1:
        cluster.run(until=cluster.now + 1e-7)
    injector.kill_compute_server(victim.server_id)

    survivor = cluster.new_compute_server()
    cluster.execute(index.session(survivor).insert(key, 222))
    assert injector.stats["lock_steals"] >= 1

    detector = RaceDetector().feed_all(collector.events)
    assert detector.ok, "\n".join(r.describe() for r in detector.races)
    actors = {event.actor for event in collector.events}
    assert f"c{victim.server_id}" in actors
    assert f"c{survivor.server_id}" in actors


# --------------------------------------------------------------------------- #
# 3. the regression: a lock-bypassing accessor must be caught                  #
# --------------------------------------------------------------------------- #

class LockBypassAccessor(RemoteAccessor):
    """Deliberately broken accessor: a leaf write path that skips the
    lock protocol entirely — the classic one-sided RDMA bug."""

    def write_node_unlocked(self, raw_ptr, data):
        pointer = RemotePointer.from_raw(raw_ptr)
        qp = self.compute_server.qp(pointer.server_id)
        yield from qp.write(pointer.offset, data)


@pytest.mark.namsan_allow_races
def test_lock_bypass_write_is_reported_as_race():
    """While a legitimate client holds a fine-grained leaf lock, a rogue
    accessor writes the same leaf without locking. The run completes —
    and the sanitizer must fail it, naming both verb events."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=23))
    dataset = generate_dataset(400, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    key = dataset.key_at(29)
    tree = index.tree_for(cluster.new_compute_server())
    raw_ptr, _leaf = cluster.execute(tree._descend_to_level(key, 0))
    pointer = RemotePointer.from_raw(raw_ptr)
    region = cluster.memory_server(pointer.server_id).region
    page_size = cluster.config.tree.page_size
    stale_page = bytes(region.read(pointer.offset, page_size))

    collector = _collect(cluster)
    writer = cluster.new_compute_server()
    proc = cluster.spawn(index.session(writer).insert(key, 111))
    deadline = cluster.now + 0.01
    while cluster.now < deadline and not region.read_u64(pointer.offset) & 1:
        cluster.run(until=cluster.now + 1e-7)
    assert region.read_u64(pointer.offset) & 1, "leaf never locked"

    rogue_cs = cluster.new_compute_server()
    rogue = LockBypassAccessor(rogue_cs, cluster.config)
    cluster.execute(rogue.write_node_unlocked(raw_ptr, stale_page))
    cluster.sim.run_until_complete(proc)
    collector.detach()

    detector = RaceDetector().feed_all(collector.events)
    assert not detector.ok, "the bypass write went undetected"
    rogue_actor = f"c{rogue_cs.server_id}"
    writer_actor = f"c{writer.server_id}"
    involved = [
        race
        for race in detector.races
        if {race.first.actor, race.second.actor} == {rogue_actor, writer_actor}
    ]
    assert involved, [r.describe() for r in detector.races]
    race = involved[0]
    # The report names the two conflicting verb events on the leaf page.
    for event in (race.first, race.second):
        assert event.verb == "WRITE"
        assert event.server == pointer.server_id
        assert event.offset == pointer.offset
    assert "unordered" in race.describe()


def test_clean_run_of_same_scenario_has_no_races():
    """Control for the regression: the identical workload *with* the
    lock protocol produces a race-free trace."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=23))
    dataset = generate_dataset(400, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    collector = _collect(cluster)
    key = dataset.key_at(29)
    first = cluster.new_compute_server()
    second = cluster.new_compute_server()
    cluster.execute(index.session(first).insert(key, 111))
    cluster.execute(index.session(second).insert(key, 222))
    detector = RaceDetector().feed_all(collector.events)
    assert detector.ok, "\n".join(r.describe() for r in detector.races)
    assert detector.events_seen > 0
