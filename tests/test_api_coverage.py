"""Tests for smaller public APIs not exercised elsewhere."""

import pytest

from repro import Cluster, ClusterConfig, HybridIndex, check_tree
from repro.rdma.verbs import Verb, VerbStats
from repro.sim import BandwidthChannel, Simulator


def test_verb_stats_totals_and_delta():
    stats = VerbStats()
    stats.record(Verb.READ, 100)
    stats.record(Verb.WRITE, 50)
    snapshot = stats.snapshot()
    stats.record(Verb.READ, 100)
    assert stats.total_ops == 3
    assert stats.total_bytes == 250
    delta = stats.delta(snapshot)
    assert delta.ops[Verb.READ] == 1
    assert delta.bytes[Verb.READ] == 100
    assert delta.ops[Verb.WRITE] == 0


def test_bandwidth_channel_busy_until():
    sim = Simulator()
    channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)
    assert channel.busy_until == 0.0
    channel.reserve(500)
    assert channel.busy_until == pytest.approx(0.5)


def test_event_fail_propagates_to_multiple_waiters():
    sim = Simulator()
    mailbox = sim.event()
    caught = []

    def waiter(tag):
        try:
            yield mailbox
        except RuntimeError as exc:
            caught.append((tag, str(exc)))

    sim.process(waiter(1))
    sim.process(waiter(2))
    mailbox.fail(RuntimeError("down"))
    sim.run()
    assert sorted(caught) == [(1, "down"), (2, "down")]


def test_cluster_network_snapshot_shape(cluster, compute):
    snapshot = cluster.network_snapshot()
    assert set(snapshot) == {0, 1, 2, 3}
    assert all(isinstance(v, tuple) and len(v) == 2 for v in snapshot.values())


def test_hybrid_gc_tree_and_start_gc(dataset):
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=6))
    index = HybridIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    compute = cluster.new_compute_server()
    session = index.session(compute)
    for i in range(100):
        cluster.execute(session.delete(dataset.key_at(i)))
    # gc_tree gives a one-sided handle over one partition; the partition
    # passes the walk end to end (inner levels read one-sided, as the GC
    # thread reads them).
    tree = index.gc_tree(compute, 0)
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
    assert report.tombstones == 100  # keys 0..99 live in partition 0
    collectors = index.start_gc(compute, epoch_s=0.0005)
    cluster.run(until=cluster.now + 0.002)
    for collector in collectors:
        collector.stopped = True
    removed = sum(collector.entries_removed for collector in collectors)
    assert removed == 100
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
    assert report.tombstones == 0
    assert cluster.execute(session.lookup(dataset.key_at(150))) == [150]


def test_memory_server_cpu_bytes_scales(cluster):
    server = cluster.memory_server(0)
    sim = cluster.sim

    def burn():
        yield server.cpu_bytes(1_000_000)

    start = sim.now
    cluster.execute(burn())
    elapsed = sim.now - start
    expected = 1_000_000 * cluster.config.cpu.per_byte_cost_s
    assert elapsed == pytest.approx(expected)
