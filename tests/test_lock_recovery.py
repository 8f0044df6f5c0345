"""Lease-based recovery of remote spinlocks left by crashed clients.

The fine-grained design's write locks live in tree pages, taken with
one-sided CAS by compute servers — so a compute server that dies inside a
critical section strands the lock with no server-side agent to clean it
up. These tests kill a client at exactly that moment and check that a
surviving client steals the lock after the lease expires and the tree
stays consistent.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    FineGrainedIndex,
    RetryConfig,
    check_tree,
    verify_index,
)
from repro.btree.pointers import RemotePointer
from repro.index.accessors import RemoteAccessor
from repro.workloads import generate_dataset

# The deliberately tight lease below triggers the lease-vs-retry-budget
# configuration warning; that is the point of these tests, so silence it.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.ConfigurationWarning"
)

LEASE_S = 0.0005


@pytest.fixture
def rig():
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=19,
            retry=RetryConfig(lock_lease_s=LEASE_S),
        )
    )
    dataset = generate_dataset(400, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(FaultPlan())
    return cluster, dataset, index, injector


def _leaf_word(cluster, index, key):
    """(region, offset, raw_ptr) of the leaf page currently covering *key*."""
    tree = index.tree_for(cluster.new_compute_server())
    raw_ptr, _leaf = cluster.execute(tree._descend_to_level(key, 0))
    pointer = RemotePointer.from_raw(raw_ptr)
    region = cluster.memory_server(pointer.server_id).region
    return region, pointer.offset, raw_ptr


def _run_until_locked(cluster, region, offset, deadline_s=0.01):
    """Step the simulator until the version word at *offset* has its lock
    bit set; returns the locked word."""
    deadline = cluster.now + deadline_s
    while cluster.now < deadline:
        word = region.read_u64(offset)
        if word & 1:
            return word
        cluster.run(until=cluster.now + 1e-7)
    raise AssertionError("leaf never became locked")


def test_leases_disabled_without_injector():
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=19))
    compute = cluster.new_compute_server()
    accessor = RemoteAccessor(compute, cluster.config)
    assert accessor.lock_lease_s() is None
    injector = cluster.attach_faults(FaultPlan())
    assert accessor.lock_lease_s() == injector.retry.lock_lease_s
    cluster.detach_faults()
    assert accessor.lock_lease_s() is None


def test_locked_word_carries_owner_tag(rig):
    cluster, dataset, index, injector = rig
    key = dataset.key_at(7)
    region, offset, _ = _leaf_word(cluster, index, key)
    victim = cluster.new_compute_server()
    proc = cluster.spawn(index.session(victim).insert(key, 111))
    injector.register_client(victim.server_id, proc)
    word = _run_until_locked(cluster, region, offset)
    # Bits 48-63 name the holder (server_id + 1); low bits stay a version.
    assert word >> 48 == victim.server_id + 1
    assert word & 1
    # Let the insert finish: the unlock restores a clean, even, tag-free word.
    cluster.sim.run_until_complete(proc)
    word = region.read_u64(offset)
    assert word >> 48 == 0
    assert word & 1 == 0


def test_survivor_steals_lock_and_completes_insert(rig):
    cluster, dataset, index, injector = rig
    key = dataset.key_at(11)
    region, offset, _ = _leaf_word(cluster, index, key)

    victim = cluster.new_compute_server()
    proc = cluster.spawn(index.session(victim).insert(key, 111))
    injector.register_client(victim.server_id, proc)
    _run_until_locked(cluster, region, offset)

    # Kill the holder mid-critical-section: the lock word stays locked.
    injector.kill_compute_server(victim.server_id)
    assert proc.triggered
    assert region.read_u64(offset) & 1

    # A surviving client inserting into the same leaf must steal the lease
    # and complete; without recovery this would spin forever.
    survivor = cluster.new_compute_server()
    t0 = cluster.now
    cluster.execute(index.session(survivor).insert(key, 222))
    assert cluster.now - t0 >= LEASE_S
    assert injector.stats["lock_steals"] >= 1

    # The word is unlocked again and the tree is structurally sound. The
    # victim's value may or may not have landed (it died mid-operation);
    # the survivor's value must be there.
    assert region.read_u64(offset) & 1 == 0
    values = cluster.execute(index.session(survivor).lookup(key))
    assert 222 in values
    assert set(values) <= {111, 222, 11}
    report = cluster.execute(
        check_tree(index.tree_for(cluster.new_compute_server()))
    )
    assert report.ok, report.violations
    assert report.entries >= 400
    report = verify_index(cluster, index)
    assert report.ok, report.violations


def test_steal_advances_version_for_optimistic_readers(rig):
    cluster, dataset, index, injector = rig
    key = dataset.key_at(23)
    region, offset, _ = _leaf_word(cluster, index, key)
    victim = cluster.new_compute_server()
    proc = cluster.spawn(index.session(victim).insert(key, 111))
    injector.register_client(victim.server_id, proc)
    locked_word = _run_until_locked(cluster, region, offset)
    pre_lock_version = (locked_word & ((1 << 48) - 1)) & ~1
    injector.kill_compute_server(victim.server_id)

    survivor = cluster.new_compute_server()
    cluster.execute(index.session(survivor).update(key, 333))
    word = region.read_u64(offset)
    # Stolen-then-updated word: even, tag-free, strictly newer than the
    # version the dead holder locked — so any reader that captured the
    # pre-crash version sees a mismatch and restarts.
    assert word & 1 == 0
    assert word >> 48 == 0
    assert word > pre_lock_version


def test_scheduled_compute_crash_during_workload(rig):
    """End-to-end: a scheduled compute-server crash strands locks that the
    remaining clients recover from; the tree survives and validates."""
    cluster, dataset, index, injector = rig

    def writer(cid, compute, count):
        session = index.session(compute)
        for i in range(count):
            yield from session.insert(
                dataset.key_at((cid * 13 + i * 7) % dataset.num_keys),
                cid * 1000 + i,
            )

    # Two victim clients on compute server 0, killed shortly after start;
    # four survivors on compute server 1 keep writing into the same leaves.
    victims_cs = cluster.new_compute_server()
    survivors_cs = cluster.new_compute_server()
    for cid in range(2):
        proc = cluster.spawn(writer(cid, victims_cs, 10_000))
        injector.register_client(victims_cs.server_id, proc)
    survivor_procs = [
        cluster.spawn(writer(10 + cid, survivors_cs, 150)) for cid in range(4)
    ]
    cluster.run(until=2e-4)
    injector.kill_compute_server(victims_cs.server_id)
    cluster.sim.run_until_complete(cluster.sim.all_of(survivor_procs))

    report = cluster.execute(
        check_tree(index.tree_for(cluster.new_compute_server()))
    )
    assert report.ok, report.violations
    assert report.entries >= 400 + 4 * 150
    assert injector.stats["killed_processes"] == 2
    # The online verifier agrees — and lease-steals any lock the killed
    # clients left behind along the way.
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    assert report.entries >= 400 + 4 * 150
