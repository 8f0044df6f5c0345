"""Design-specific tests for the coarse-grained (two-sided) index."""

import pytest

from repro import Cluster, ClusterConfig, CoarseGrainedIndex, check_tree
from repro.btree.algorithm import BLinkTree
from repro.errors import ConfigurationError
from repro.index.partitioning import HashPartitioner, RangePartitioner
from repro.workloads import skewed_partitioner


def test_pages_stay_on_partition_owner(cluster, dataset):
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    # Each server's tree validates locally: all pointers are local.
    total = 0
    for server_id in range(4):
        report = cluster.execute(check_tree(index.local_tree(server_id)))
        assert report.ok, report.violations
        total += report.entries
    assert total == dataset.num_keys


def test_partition_sizes_follow_skew_fractions(cluster, dataset):
    partitioner = skewed_partitioner(dataset, 4)
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), partitioner=partitioner
    )
    reports = [
        cluster.execute(check_tree(index.local_tree(server_id)))
        for server_id in range(4)
    ]
    assert all(report.ok for report in reports)
    sizes = [report.entries for report in reports]
    assert sizes[0] == pytest.approx(0.80 * dataset.num_keys, rel=0.02)
    assert sizes[3] == pytest.approx(0.03 * dataset.num_keys, rel=0.2)


def test_hash_partitioned_point_and_range_queries(cluster, dataset):
    index = CoarseGrainedIndex.build(
        cluster,
        "idx",
        *dataset.columns(),
        partitioner=HashPartitioner(4),
    )
    session = index.session(cluster.new_compute_server())
    assert cluster.execute(session.lookup(dataset.key_at(77))) == [77]
    low, high = dataset.key_at(100), dataset.key_at(160)
    got = cluster.execute(session.range_scan(low, high))
    assert got == [(dataset.key_at(i), i) for i in range(100, 160)]


def test_hash_range_queries_touch_every_server(cluster, dataset):
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), partitioner=HashPartitioner(4)
    )
    session = index.session(cluster.new_compute_server())
    before = [server.rpcs_handled for server in cluster.memory_servers]
    cluster.execute(session.range_scan(0, dataset.key_at(50)))
    after = [server.rpcs_handled for server in cluster.memory_servers]
    assert all(b - a == 1 for a, b in zip(before, after))


def test_range_partitioned_queries_touch_only_owners(cluster, dataset):
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    session = index.session(cluster.new_compute_server())
    before = [server.rpcs_handled for server in cluster.memory_servers]
    cluster.execute(session.range_scan(0, dataset.key_at(50)))  # partition 0
    after = [server.rpcs_handled for server in cluster.memory_servers]
    deltas = [b - a for a, b in zip(before, after)]
    assert deltas == [1, 0, 0, 0]


def test_partitioner_server_count_must_match(cluster, dataset):
    with pytest.raises(ConfigurationError):
        CoarseGrainedIndex.build(
            cluster,
            "idx",
            *dataset.columns(),
            partitioner=RangePartitioner.uniform(dataset.key_space, 2),
        )


def test_all_operations_are_rpcs(cluster, dataset):
    """The coarse-grained client never issues one-sided verbs."""
    from repro.rdma.verbs import Verb

    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    session = index.session(cluster.new_compute_server())
    cluster.execute(session.lookup(dataset.key_at(5)))
    cluster.execute(session.insert(dataset.key_at(5) + 1, 1))
    cluster.execute(session.range_scan(0, dataset.key_at(20)))
    cluster.execute(session.delete(dataset.key_at(5)))
    for server in cluster.memory_servers:
        assert server.stats.ops[Verb.READ] == 0
        assert server.stats.ops[Verb.WRITE] == 0
        assert server.stats.ops[Verb.CAS] == 0


def test_colocated_sessions_bypass_rpc_for_local_partitions(dataset):
    cluster = Cluster(ClusterConfig(num_memory_servers=4, colocated=True))
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    compute = cluster.new_compute_server()  # lands on machine 0 (servers 0, 1)
    session = index.session(compute)
    one_sided = {
        partition
        for partition, handle in session._trees.items()
        if isinstance(handle, BLinkTree)
    }
    assert set(session._trees) == {0, 1, 2, 3}
    assert one_sided == {0, 1}  # the others are RPC stubs
    before = cluster.memory_server(0).rpcs_handled
    assert cluster.execute(session.lookup(dataset.key_at(10))) == [10]
    assert cluster.memory_server(0).rpcs_handled == before  # no RPC issued
    # Remote partitions still go through RPC.
    remote_key = dataset.key_at(1900)
    before3 = cluster.memory_server(3).rpcs_handled
    assert cluster.execute(session.lookup(remote_key)) == [1900]
    assert cluster.memory_server(3).rpcs_handled == before3 + 1


def test_colocated_insert_keeps_pages_on_owner(dataset):
    cluster = Cluster(ClusterConfig(num_memory_servers=4, colocated=True))
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    session = index.session(cluster.new_compute_server())
    # Enough local inserts to force splits; validation would fail if a page
    # landed on a foreign server (local trees assert same-server pointers).
    for i in range(200):
        cluster.execute(session.insert(dataset.key_at(20) + 1 + (i % 7), i))
    report = cluster.execute(check_tree(index.local_tree(0)))
    assert report.ok, report.violations
    assert report.entries == dataset.num_keys // 4 + 200
