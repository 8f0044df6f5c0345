"""Hybrid-design chaos: stranded leaf locks, crashes, and failover.

The hybrid design has the widest failure surface of the three: a client
crash can strand a one-sided leaf lock (like fine-grained), a memory
server crash takes out both a partition's inner tree (served by RPC) and
a slice of its leaves, and recovery must re-install the traversal
handlers on the promoted backup. These tests target exactly those seams;
:func:`repro.index.verify.verify_index` is the oracle throughout.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    HybridIndex,
    RetryConfig,
    ServerCrash,
    verify_index,
)
from repro.btree.pointers import RemotePointer
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

# Tight lease so steals happen fast; deliberately below the retry budget
# (the config warns about exactly this, which the module filter silences).
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.ConfigurationWarning"
)

LEASE_S = 0.0005

MIXED = WorkloadSpec(
    name="hybrid-chaos-mix",
    point_fraction=0.5,
    range_fraction=0.1,
    insert_fraction=0.3,
    delete_fraction=0.1,
    selectivity=0.005,
)


def _hybrid_cluster(factor=1, num_servers=2, seed=37):
    return Cluster(
        ClusterConfig(
            num_memory_servers=num_servers,
            memory_servers_per_machine=1,
            replication_factor=factor,
            seed=seed,
            retry=RetryConfig(lock_lease_s=LEASE_S),
        )
    )


def _leaf_word(cluster, index, key):
    """(logical server id, region, offset) of the leaf covering *key*."""
    session = index.session(cluster.new_compute_server())
    handle = session._trees[index.partitioner.server_for_key(key)]
    raw_ptr, _leaf = cluster.execute(handle._find_leaf(key))
    pointer = RemotePointer.from_raw(raw_ptr)
    if cluster.replication is not None:
        _host, region = cluster.replication.route(pointer.server_id)
    else:
        region = cluster.memory_server(pointer.server_id).region
    return pointer.server_id, region, pointer.offset


def _run_until_locked(cluster, region, offset, deadline_s=0.01):
    deadline = cluster.now + deadline_s
    while cluster.now < deadline:
        word = region.read_u64(offset)
        if word & 1:
            return word
        cluster.run(until=cluster.now + 1e-7)
    raise AssertionError("leaf never became locked")


def test_hybrid_leaf_lock_steal():
    """A client killed inside a hybrid leaf critical section strands the
    lock; a survivor lease-steals it and completes its insert."""
    cluster = _hybrid_cluster()
    dataset = generate_dataset(500, gap=4)
    index = HybridIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    injector = cluster.attach_faults(FaultPlan())
    key = dataset.key_at(13)
    _sid, region, offset = _leaf_word(cluster, index, key)

    victim = cluster.new_compute_server()
    proc = cluster.spawn(index.session(victim).insert(key, 111))
    injector.register_client(victim.server_id, proc)
    word = _run_until_locked(cluster, region, offset)
    assert word >> 48 == victim.server_id + 1  # owner-tagged
    injector.kill_compute_server(victim.server_id)
    assert region.read_u64(offset) & 1  # still locked by the dead client

    survivor = cluster.new_compute_server()
    t0 = cluster.now
    cluster.execute(index.session(survivor).insert(key, 222))
    assert cluster.now - t0 >= LEASE_S
    assert injector.stats["lock_steals"] >= 1
    assert region.read_u64(offset) & 1 == 0

    values = cluster.execute(index.session(survivor).lookup(key))
    assert 222 in values
    report = verify_index(cluster, index)
    assert report.ok, report.violations


def test_hybrid_stranded_lock_survives_failover():
    """The nastiest interleaving: the lock holder dies, then the primary
    hosting the locked leaf dies too. The survivor's traversal RPC fails
    over to the promoted backup — where the stranded lock was mirrored —
    and the lease steal happens on the new primary."""
    cluster = _hybrid_cluster(factor=2, num_servers=3)
    dataset = generate_dataset(600, gap=4)
    index = HybridIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    injector = cluster.attach_faults(FaultPlan())
    key = dataset.key_at(41)
    sid, region, offset = _leaf_word(cluster, index, key)

    victim = cluster.new_compute_server()
    proc = cluster.spawn(index.session(victim).insert(key, 111))
    injector.register_client(victim.server_id, proc)
    _run_until_locked(cluster, region, offset)
    injector.kill_compute_server(victim.server_id)

    # Destructively crash the physical host currently serving the leaf's
    # logical server: the locked page survives only on its backup.
    primary_host = cluster.replication.primary_host_id(sid)
    injector.crash_memory_server(primary_host)

    survivor = cluster.new_compute_server()
    cluster.execute(index.session(survivor).insert(key, 222))
    assert cluster.replication.stats["failovers"] >= 1
    assert injector.stats["lock_steals"] >= 1

    # The promoted copy holds the survivor's write, unlocked.
    _host, new_region = cluster.replication.route(sid)
    assert new_region is not region
    values = cluster.execute(index.session(survivor).lookup(key))
    assert 222 in values
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    cluster.replication.assert_replicas_converged()


def test_hybrid_chaos_workload_with_replication():
    """Mixed workload under drops/delays/duplicates plus a destructive
    crash/restart at factor 2: typed errors only, verifier clean, replicas
    byte-converged."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=3,
            memory_servers_per_machine=1,
            replication_factor=2,
            clients_per_compute_server=8,
            seed=43,
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = HybridIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    injector = cluster.attach_faults(
        FaultPlan(
            seed=13,
            drop_probability=0.02,
            delay_probability=0.05,
            delay_s=30e-6,
            duplicate_probability=0.02,
            server_crashes=(ServerCrash(1, at_s=0.004, down_for_s=0.002),),
        )
    )
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, MIXED, num_clients=8, warmup_s=0.001, measure_s=0.009, seed=17
    )
    assert result.total_ops > 0
    assert injector.stats["server_crashes"] == 1
    assert injector.stats["server_restarts"] == 1
    assert all(name == "RetriesExhaustedError" for name in result.errors)

    injector.quiesce()
    session = index.session(cluster.new_compute_server())
    scan = cluster.execute(session.range_scan(0, dataset.key_space * 2))
    keys = [key for key, _value in scan]
    assert keys == sorted(keys)
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    cluster.replication.assert_replicas_converged()
