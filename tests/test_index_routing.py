"""A partitioned session is a router: every operation is the operation of
the per-partition handle that owns the key, and nothing else."""

import pytest

from repro import Cluster, ClusterConfig, CoarseGrainedIndex, HybridIndex
from repro.index.partitioned import merge_partials
from repro.index.partitioning import HashPartitioner

#: label -> (design, co-located cluster?)
RIGS = {
    "coarse-grained": (CoarseGrainedIndex, False),
    "coarse-grained-colocated": (CoarseGrainedIndex, True),
    "hybrid": (HybridIndex, False),
}


class _Spy:
    """Stands in for one partition's handle and logs ``(partition,
    operation, arguments, result)`` of every operation routed to it."""

    def __init__(self, partition, handle, log):
        self._partition = partition
        self._handle = handle
        self._log = log

    def __getattr__(self, operation):
        method = getattr(self._handle, operation)

        def logged(*args):
            result = yield from method(*args)
            self._log.append((self._partition, operation, args, result))
            return result

        return logged


@pytest.fixture(params=sorted(RIGS))
def rig(request, dataset):
    design, colocated = RIGS[request.param]
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=3, colocated=colocated))
    index = design.build(cluster, "idx", *dataset.columns(), key_space=dataset.key_space)
    session = index.session(cluster.new_compute_server())
    log = []
    for partition, handle in session._trees.items():
        session._trees[partition] = _Spy(partition, handle, log)
    return cluster, dataset, index, session, log


def test_each_operation_is_the_owning_handles(rig):
    cluster, dataset, index, session, log = rig
    owner = index.partitioner.server_for_key
    for ordinal in (3, 700, 1200, 1999):  # one key in each partition
        key = dataset.key_at(ordinal)
        operations = [
            ("lookup", (key,)),
            ("insert", (key + 1, 77)),
            ("update", (key + 1, 78)),
            ("update", (key + 2, 1)),  # no such entry: False, not an error
            ("range_scan", (key, key + 8)),
            ("delete", (key,)),
            ("delete", (key,)),
            ("lookup", (key,)),
        ]
        results = []
        for operation, args in operations:
            log.clear()
            got = cluster.execute(getattr(session, operation)(*args))
            assert log == [(owner(key), operation, args, got)]
            results.append(got)
        assert results == [
            [ordinal], None, True, False, [(key, ordinal), (key + 1, 78)],
            True, False, [],
        ]


def test_multi_partition_scan_is_the_merge_of_its_partitions(rig):
    cluster, dataset, index, session, log = rig
    low, high = dataset.key_at(400), dataset.key_at(1600)  # partitions 0..3
    got = cluster.execute(session.range_scan(low, high))
    assert sorted(entry[0] for entry in log) == [0, 1, 2, 3]
    assert all(entry[1:3] == ("range_scan", (low, high)) for entry in log)
    assert got == merge_partials(entry[3] for entry in log)
    assert got == [(dataset.key_at(i), i) for i in range(400, 1600)]


def test_hybrid_handle_talks_to_its_own_partition_only(cluster, dataset):
    """Under hash partitioning neighbouring keys — and so the separators
    of leaf splits — belong to other partitions than the leaf they sit
    in; the handle must not care."""
    index = HybridIndex.build(
        cluster, "idx", *dataset.columns(), partitioner=HashPartitioner(4)
    )
    session = index.session(cluster.new_compute_server())
    sent = {partition: [] for partition in session._trees}

    def recording(partition, real_call):
        def call(server_id, op, *args):
            sent[partition].append((server_id, op))
            return real_call(server_id, op, *args)

        return call

    # ... and the partition each message names, as its queue pair ships it.
    named = set()

    def shipping(server_id, real_post):
        def post(request, request_wire_bytes, tenant=None):
            named.add((server_id, request.partition))
            return real_post(request, request_wire_bytes, tenant)

        return post

    for partition, handle in session._trees.items():
        handle._call = recording(partition, handle._call)
        qp = session.compute_server.qp(partition)
        qp.call = shipping(partition, qp.call)
    for i in range(600):  # enough to split leaves of every partition
        cluster.execute(session.insert(dataset.key_at(i % 40) + 1 + i % 7, i))
    cluster.execute(session.range_scan(0, dataset.key_space))
    for partition, calls in sent.items():
        assert {op for _server_id, op in calls} == {"traverse", "install_separator"}
        assert {server_id for server_id, _op in calls} == {partition}
    assert named == {(partition, partition) for partition in sent}
