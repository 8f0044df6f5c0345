"""Tests for epoch-based garbage collection."""

import pytest

from repro import Cluster, ClusterConfig, EpochGarbageCollector, FineGrainedIndex
from repro.btree import BLinkTree
from repro.btree.inmemory import InMemoryAccessor, InMemoryRootRef, drive


@pytest.fixture
def fg_setup(dataset):
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=9))
    index = FineGrainedIndex.build(cluster, "idx", dataset.pairs())
    compute = cluster.new_compute_server()
    return cluster, dataset, index, compute


def test_sweep_removes_tombstones(fg_setup):
    cluster, dataset, index, compute = fg_setup
    session = index.session(compute)
    for i in range(0, 200, 2):
        cluster.execute(session.delete(dataset.key_at(i)))
    tree = index.tree_for(compute)
    before = cluster.execute(tree.validate())
    assert before["tombstones"] == 100
    gc = EpochGarbageCollector(cluster.sim, index.tree_for(compute))
    stats = cluster.execute(gc.sweep())
    assert stats["removed"] == 100
    after = cluster.execute(tree.validate())
    assert after["tombstones"] == 0
    assert after["entries"] == before["entries"]


def test_deleted_keys_stay_deleted_after_sweep(fg_setup):
    cluster, dataset, index, compute = fg_setup
    session = index.session(compute)
    cluster.execute(session.delete(dataset.key_at(10)))
    gc = EpochGarbageCollector(cluster.sim, index.tree_for(compute))
    cluster.execute(gc.sweep())
    assert cluster.execute(session.lookup(dataset.key_at(10))) == []
    assert cluster.execute(session.lookup(dataset.key_at(11))) == [11]


def test_background_gc_process(fg_setup):
    cluster, dataset, index, compute = fg_setup
    session = index.session(compute)
    for i in range(50):
        cluster.execute(session.delete(dataset.key_at(i)))
    gc = EpochGarbageCollector(
        cluster.sim, index.tree_for(compute), epoch_s=0.001
    )
    gc.start()
    cluster.run(until=cluster.now + 0.005)
    gc.stopped = True
    assert gc.sweeps >= 1
    assert gc.entries_removed == 50


def test_sweep_with_concurrent_writers(fg_setup):
    """GC racing inserts/deletes never loses live entries."""
    cluster, dataset, index, compute = fg_setup
    session = index.session(compute)
    gc = EpochGarbageCollector(
        cluster.sim, index.tree_for(compute), epoch_s=0.0005
    )
    gc.start()

    def mutator():
        for i in range(100):
            yield from session.insert(dataset.key_at(i) + 1, i)
            yield from session.delete(dataset.key_at(i))

    proc = cluster.spawn(mutator())
    cluster.sim.run_until_complete(proc)
    gc.stopped = True
    cluster.execute(gc.sweep())
    got = cluster.execute(session.range_scan(0, dataset.key_space))
    assert len(got) == dataset.num_keys  # 100 deleted, 100 inserted
    cluster.execute(index.tree_for(compute).validate())


def test_head_rebuild_restores_prefetchability(fg_setup):
    cluster, dataset, index, compute = fg_setup
    session = index.session(compute)
    # Splits create leaves with stale/inherited head pointers.
    for i in range(300):
        cluster.execute(session.insert(dataset.key_at(500) + 1 + (i % 7), i))
    gc = EpochGarbageCollector(
        cluster.sim,
        index.tree_for(compute),
        rebuild_heads=True,
        head_interval=8,
    )
    cluster.execute(gc.sweep())
    assert gc.heads_installed > 0
    # Scans still correct after the rebuild.
    got = cluster.execute(session.range_scan(0, dataset.key_space))
    assert len(got) == dataset.num_keys + 300


def test_rebuilt_heads_list_no_empty_leaf_and_prefetch_the_rest(fg_setup):
    """Two leaves at positions 2 and 3 of the second head group are deleted
    whole and compacted empty. The rebuilt head lists the group's other
    leaves, first keys sorted — what the scan's prefetch bisects — and a
    full scan prefetches, per group, every non-empty leaf after the one it
    entered the group by, and nothing else."""
    cluster, dataset, index, compute = fg_setup
    session = index.session(compute)
    for ordinal in range(420, 504):  # leaves 10 and 11, 42 pairs each
        assert cluster.execute(session.delete(dataset.key_at(ordinal)))
    tree = index.tree_for(compute)
    gc = EpochGarbageCollector(cluster.sim, tree, rebuild_heads=True, head_interval=8)
    cluster.execute(gc.sweep())

    chain, raw_ptr = [], cluster.execute(tree._find_leaf(0))[0]
    while True:
        leaf = cluster.execute(tree.acc.read_node(raw_ptr))
        chain.append((raw_ptr, leaf))
        if leaf.right & (1 << 63):
            break
        raw_ptr = leaf.right
    empty = {ptr for ptr, leaf in chain if not leaf.keys}
    assert len(empty) == 2
    groups = [chain[start : start + 8] for start in range(0, len(chain), 8)]
    for group in groups:
        head = cluster.execute(tree.acc.read_node(group[0][1].head))
        assert head.values == [ptr for ptr, leaf in group if leaf.keys]
        assert head.keys == sorted(set(head.keys))

    wanted = []
    read_nodes = session._tree.acc.read_nodes

    def spy(raw_ptrs):
        wanted.append(list(raw_ptrs))
        return read_nodes(raw_ptrs)

    session._tree.acc.read_nodes = spy
    got = cluster.execute(session.range_scan(0, dataset.key_space))
    assert len(got) == dataset.num_keys - 84
    assert wanted == [
        [ptr for ptr, leaf in group[1:] if leaf.keys] for group in groups if len(group) > 1
    ]


def test_gc_on_in_memory_tree():
    """The collector is storage-agnostic: works over the in-memory accessor
    when driven manually (no simulator clock needed for a single sweep)."""
    from repro.sim import Simulator

    acc = InMemoryAccessor(page_size=256)
    tree = BLinkTree(acc, InMemoryRootRef(acc))
    for i in range(100):
        drive(tree.insert(i, i))
    for i in range(0, 100, 3):
        drive(tree.delete(i))
    gc = EpochGarbageCollector(Simulator(), tree)
    stats = drive(gc.sweep())
    assert stats["removed"] == 34
    assert drive(tree.validate())["tombstones"] == 0
