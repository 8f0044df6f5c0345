"""Design-specific tests for the hybrid index."""

import pytest

from repro import Cluster, ClusterConfig, HybridIndex, TreeConfig, check_tree, verify_index
from repro.btree import key_columns
from repro.btree.pointers import RemotePointer
from repro.index.partitioning import HashPartitioner, RoundRobinPartitioner
from repro.nam.rpc import TreeCall
from repro.rdma.verbs import Verb
from repro.workloads import check_history, skewed_partitioner
from tests.test_checker import issued


def build(cluster, dataset, **kwargs):
    return HybridIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space, **kwargs
    )


def test_inner_nodes_on_owner_leaves_spread(cluster, dataset):
    index = build(cluster, dataset)
    # Inner trees are local-only: validation through the local accessor
    # would fail on a foreign pointer at the inner levels.
    for server_id in range(4):
        inner = index.inner_tree(server_id)
        root_ptr = cluster.execute(inner.root.refresh())
        root = cluster.execute(inner._read_unlocked(root_ptr))
        assert root.is_inner
        assert RemotePointer.from_raw(root_ptr).server_id == server_id
    # Leaves are spread: every server allocated roughly equal page counts.
    allocated = [s.allocator.pages_allocated for s in cluster.memory_servers]
    assert max(allocated) - min(allocated) <= max(allocated) * 0.6


def test_leaves_spread_even_under_skewed_partitioning(cluster, dataset):
    build(cluster, dataset, partitioner=skewed_partitioner(dataset, 4))
    allocated = [s.allocator.pages_allocated for s in cluster.memory_servers]
    # 80% of the data belongs to server 0's partition, yet pages balance.
    assert max(allocated) <= 1.5 * min(allocated)


def test_lookup_is_one_rpc_plus_one_read(cluster, dataset):
    index = build(cluster, dataset)
    session = index.session(cluster.new_compute_server())
    rpcs_before = sum(s.rpcs_handled for s in cluster.memory_servers)
    reads_before = sum(s.stats.ops[Verb.READ] for s in cluster.memory_servers)
    assert cluster.execute(session.lookup(dataset.key_at(123))) == [123]
    assert sum(s.rpcs_handled for s in cluster.memory_servers) == rpcs_before + 1
    assert sum(s.stats.ops[Verb.READ] for s in cluster.memory_servers) == reads_before + 1


def test_leaf_split_installs_separator_via_rpc(cluster, dataset):
    index = build(cluster, dataset)
    session = index.session(cluster.new_compute_server())
    target = dataset.key_at(100)
    # Overfill one leaf so it splits client-side.
    for i in range(150):
        cluster.execute(session.insert(target + 1 + (i % 7), i))
    # All entries reachable through fresh traversals (separator installed).
    fresh = index.session(cluster.new_compute_server())
    got = cluster.execute(fresh.range_scan(target, target + 8))
    assert len(got) == 151
    # The owner's inner tree grew. The one-sided handle walks it down
    # through the seam to the leaves, which live on other servers.
    tree = index.gc_tree(cluster.new_compute_server(), 0)
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
    assert cluster.execute(tree.height()) >= 2


def test_cross_partition_scan_with_heads(cluster, dataset):
    index = build(cluster, dataset)
    session = index.session(cluster.new_compute_server())
    got = cluster.execute(session.range_scan(0, dataset.key_space))
    assert got == dataset.pairs()


def test_point_skew_hits_owner_cpu_but_leaves_spread(dataset):
    """Under data skew, hybrid traversal RPCs concentrate on the hot owner
    (its CPU is the bottleneck) while leaf READs spread over all servers."""
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=5))
    index = build(cluster, dataset, partitioner=skewed_partitioner(dataset, 4))
    session = index.session(cluster.new_compute_server())
    for i in range(0, 400, 7):
        cluster.execute(session.lookup(dataset.key_at(i % dataset.num_keys)))
    rpcs = [server.rpcs_handled for server in cluster.memory_servers]
    reads = [server.stats.ops[Verb.READ] for server in cluster.memory_servers]
    assert rpcs[0] > 0.7 * sum(rpcs)  # hot partition owner takes the RPCs
    assert min(reads) > 0  # leaf reads hit every server


@pytest.mark.parametrize(
    "partitioner, gap_high, probe",
    [(HashPartitioner(4), 1203, 1003), (RoundRobinPartitioner(4), 1205, 1005)],
    ids=["hash", "round-robin"],
)
def test_duplicate_run_split_keeps_its_separator_in_its_partition(
    partitioner, gap_high, probe
):
    """A full leaf of one key splits at ``run_key + 1`` — a made-up
    separator that hashes (or strides) to another partition than the leaf
    it came from. It must still go to the owner the leaf was reached
    through; routed by its own key it lands in a foreign inner level and
    shadows that partition's keys."""
    cluster = Cluster(
        ClusterConfig(num_memory_servers=4, seed=11, tree=TreeConfig(page_size=256))
    )
    loaded = [(k, k) for k in range(0, 20000, 7) if not 951 <= k <= gap_high]
    index = HybridIndex.build(cluster, "idx", *key_columns(loaded), partitioner=partitioner)
    session = index.session(cluster.new_compute_server())
    history = []
    for i in range(13):
        issued(history, cluster.execute, session, "insert", 1001, 5000 + i)
    issued(history, cluster.execute, session, "insert", probe, 777)

    fresh = index.session(cluster.new_compute_server())
    for key in [k for k, _ in loaded] + [probe, 1001]:
        issued(history, cluster.execute, fresh, "lookup", key)
    assert check_history(history, loaded) == []
    report = verify_index(cluster, index)
    assert report.ok, report.violations


def test_verifier_reports_a_separator_installed_in_the_wrong_partition(
    cluster, dataset
):
    """Every invariant of partition 1's inner level still holds after it
    is handed partition 0's leaf under an in-range separator — except that
    the leaf is not on partition 1's chain."""
    index = build(cluster, dataset)
    compute = cluster.new_compute_server()
    low, _high = index.partitioner.partition_bounds(1, dataset.key_space)
    foreign_leaf, _leaf = cluster.execute(
        index.gc_tree(compute, 0)._descend_to_level(0, 0)
    )
    own_leaf, _leaf = cluster.execute(
        index.gc_tree(compute, 1)._descend_to_level(low + 9, 0)
    )
    assert verify_index(cluster, index).ok
    request = TreeCall(
        "install_separator", index.name, 1, (low + 9, foreign_leaf, own_leaf)
    )
    cluster.execute(compute.qp(1).call(request, request.wire_bytes))
    report = verify_index(cluster, index)
    assert [v for v in report.violations if f"{foreign_leaf:#x}" in v] == [
        f"hybrid partition 1: level-1 child pointer {foreign_leaf:#x} is not "
        "on the level-0 sibling chain"
    ]
