"""Error-path and failure-injection tests."""

import pytest

from repro import Cluster, ClusterConfig, CoarseGrainedIndex, FineGrainedIndex, check_tree
from repro.btree import key_columns
from repro.errors import (
    AllocationError,
    CatalogError,
    IndexError_,
    RemoteAccessError,
)
from repro.experiments.common import DESIGNS
from repro.index.partitioning import HashPartitioner
from repro.workloads import generate_dataset


def test_region_exhaustion_surfaces_cleanly():
    """Running a memory server out of pages raises AllocationError through
    the whole stack instead of corrupting anything."""
    config = ClusterConfig(
        num_memory_servers=2,
        region_initial_bytes=1 << 14,
        region_max_bytes=1 << 15,  # 32 pages per server
    )
    cluster = Cluster(config)
    dataset = generate_dataset(200, gap=4)
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    session = index.session(cluster.new_compute_server())
    with pytest.raises(AllocationError):
        for i in range(2000):
            cluster.execute(session.insert(1 + (i % 50), i))


def test_duplicate_overflow_error_is_actionable(cluster):
    index = FineGrainedIndex.build(cluster, "idx", *key_columns([(5, 0)]))
    session = index.session(cluster.new_compute_server())
    capacity = (cluster.config.tree.page_size - 40) // 16
    with pytest.raises(IndexError_, match="duplicate run"):
        for i in range(capacity + 1):
            cluster.execute(session.insert(5, 100 + i))


def test_remote_read_beyond_region_max(cluster, compute):
    qp = compute.qp(0)
    with pytest.raises(RemoteAccessError):
        cluster.execute(qp.read(cluster.config.region_max_bytes + 4096, 64))


def test_duplicate_index_name_rejected(cluster, pairs):
    FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))
    with pytest.raises(CatalogError, match="already registered"):
        FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))


def test_unsorted_bulk_load_rejected(cluster):
    with pytest.raises(IndexError_, match="sorted"):
        FineGrainedIndex.build(cluster, "idx", [5, 1], [1, 2])


#: Key and value columns ``insert`` would refuse, passed raw so that the
#: build's own check is what raises. 800 and 8 fall in different
#: partitions under both uniform range partitioning of ``[0, 1000)`` and
#: ``HashPartitioner(4)``, so each partition's share of the unsorted input
#: is sorted on its own.
UNLOADABLE = {
    "tombstoned-payload": ([8], [(1 << 63) | 5]),
    "max-key": ([8, (1 << 64) - 1], [1, 2]),
    "negative-key": ([-8, 8], [1, 2]),
    "negative-payload": ([8], [-1]),
    "key-of-2**64": ([8, 1 << 64], [1, 2]),
    "payload-of-2**64": ([8], [1 << 64]),
    "unsorted": ([800, 8], [1, 2]),
    "unequal-columns": ([8, 16], [1]),
}


@pytest.mark.parametrize("case", sorted(UNLOADABLE))
@pytest.mark.parametrize("partitioning", ["range", "hash"])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_bulk_load_rejects_what_insert_rejects(design, partitioning, case):
    """A build refuses columns ``insert`` would refuse with IndexError_,
    and before it has allocated a page anywhere."""
    cluster = Cluster(ClusterConfig(seed=1))
    allocated = [server.allocator.pages_allocated for server in cluster.memory_servers]
    partitioner = HashPartitioner(4) if partitioning == "hash" else None
    with pytest.raises(IndexError_):
        DESIGNS[design].build(
            cluster, "idx", *UNLOADABLE[case], partitioner=partitioner, key_space=1000
        )
    assert [server.allocator.pages_allocated for server in cluster.memory_servers] == (
        allocated
    )


def test_reserved_max_key_rejected_end_to_end(cluster, pairs):
    from repro.btree import MAX_KEY

    index = FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))
    session = index.session(cluster.new_compute_server())
    with pytest.raises(IndexError_):
        cluster.execute(session.insert(MAX_KEY, 1))
    with pytest.raises(IndexError_):
        cluster.execute(session.insert(1, 1 << 63))


def test_qp_to_unknown_server_rejected(cluster, compute):
    from repro.errors import NetworkError

    with pytest.raises(NetworkError):
        compute.qp(99)


def test_index_survives_failed_operation(cluster, dataset):
    """An operation that raises leaves the index fully usable (no lock is
    left behind: the failures above happen before any lock is taken, and
    allocation failures abort before linking)."""
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    with pytest.raises(IndexError_):
        cluster.execute(session.insert(7, 1 << 63))
    cluster.execute(session.insert(7, 42))
    assert cluster.execute(session.lookup(7)) == [42]
    tree = index.tree_for(cluster.new_compute_server())
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
