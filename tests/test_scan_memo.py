"""The live-pair memo a range scan keeps on a decoded page image is sound.

A scan reads a leaf's pairs from :attr:`Node.live`, built once per image by
:meth:`Node.build_live` and kept on the decode memo's master, which every
client and RPC worker of the cluster shares. What that has to mean, each as
a test: nothing a writer could mutate carries a built memo; a write makes a
new image, so a key tombstoned after a scan is gone from the next one, in
every design and through the client cache; compaction leaves scans equal to
the sequential model; a scan still ends at a leaf whose keys past the range
are all tombstoned; and a key's duplicates come back in insertion order,
across partitions too.
"""

from __future__ import annotations

import random

import pytest

from repro import Cluster, ClusterConfig, EpochGarbageCollector, FineGrainedIndex
from repro.btree.algorithm import BLinkTree
from repro.btree.inmemory import InMemoryAccessor, InMemoryRootRef, drive
from repro.btree.node import TOMBSTONE_BIT, Node, NodeType
from repro.config import CacheConfig
from repro.experiments.common import DESIGNS, build_index
from repro.index.partitioned import merge_partials
from repro.index.partitioning import HashPartitioner
from repro.workloads import generate_dataset


def test_no_constructor_carries_a_built_memo():
    node = Node(NodeType.LEAF, 0, keys=[1, 2, 3], values=[10, 20 | TOMBSTONE_BIT, 30])
    assert node.live is None
    live = node.build_live()
    assert live == ([1, 3], [(1, 10), (3, 30)]) and node.live is live
    assert node.clone().live is None
    assert Node.from_bytes(node.to_bytes(256)).live is None
    sibling, _split_key = node.split()
    assert sibling.live is None
    # Without a tombstone the live keys are the node's own list, not a copy.
    clean = Node(NodeType.LEAF, 0, keys=[4, 5], values=[40, 50])
    assert clean.build_live()[0] is clean.keys


@pytest.mark.parametrize(
    "design, depth",
    [("coarse-grained", 0), ("fine-grained", 0), ("fine-grained", 2), ("hybrid", 0)],
    ids=["coarse-grained", "fine-grained", "fine-grained-cached", "hybrid"],
)
def test_a_key_tombstoned_after_a_scan_is_gone_from_the_next(design, depth):
    """Coarse-grained scans run in an RPC worker through its
    ``LocalAccessor``; the others on the client, the cached one through a
    ``CachingRemoteAccessor``. All of them read the cluster's memo."""
    cluster = Cluster(ClusterConfig(seed=5, cache=CacheConfig(depth=depth)))
    dataset = generate_dataset(2_000, gap=8)
    index = build_index(cluster, design, dataset)
    session = index.session(cluster.new_compute_server())
    low, high = dataset.key_at(100), dataset.key_at(110)
    victim = dataset.key_at(105)
    before = cluster.execute(session.range_scan(low, high))
    assert before == [(dataset.key_at(i), i) for i in range(100, 110)]
    [(leaf_ptr, master)] = [
        (raw, node)
        for raw, node in cluster.decode_memo.items()
        if node.live is not None and victim in node.live[0]
    ]

    assert cluster.execute(session.delete(victim))
    after = cluster.execute(session.range_scan(low, high))
    assert after == [pair for pair in before if pair[0] != victim]
    # The memo lived with its master: the old image keeps its pairs, the
    # new one is another object with its own.
    assert victim in master.live[0]
    current = cluster.decode_memo[leaf_ptr]
    assert current is not master and victim not in current.live[0]


def _in_memory_tree(page_size: int = 512) -> BLinkTree:
    accessor = InMemoryAccessor(page_size=page_size)
    return BLinkTree(accessor, InMemoryRootRef(accessor))


def _collectors(design, index, cluster, compute):
    if design == "fine-grained":
        return [
            EpochGarbageCollector(cluster.sim, index.tree_for(compute), rebuild_heads=True)
        ]
    if design == "hybrid":
        trees = [index.gc_tree(compute, server_id) for server_id in index.roots]
    else:
        trees = [index.local_tree(server_id) for server_id in index.roots]
    return [EpochGarbageCollector(cluster.sim, tree) for tree in trees]


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_after_gc_compaction_scans_equal_the_sequential_model(design):
    """Scans first read tombstoned images (and memoize their live pairs),
    then the collector compacts them — emptying whole leaves among them —
    and scans read the compacted images. Both times the answer is the
    in-memory tree's, fed the same operations one after another."""
    cluster = Cluster(ClusterConfig(seed=5))
    dataset = generate_dataset(2_000, gap=8)
    index = build_index(cluster, design, dataset)
    compute = cluster.new_compute_server()
    session = index.session(compute)
    model = _in_memory_tree()
    for key, value in dataset.pairs():
        drive(model.insert(key, value))

    rng = random.Random(3)
    for i in range(40):
        key = dataset.key_at(rng.randrange(dataset.num_keys)) + rng.choice((0, 1))
        cluster.execute(session.insert(key, 5_000 + i))
        drive(model.insert(key, 5_000 + i))
    # Ordinals 500-599 span whole leaves (42 pairs each): they empty out.
    victims = list(range(500, 600)) + rng.sample(range(dataset.num_keys), 200)
    deleted = 0
    for ordinal in victims:
        key = dataset.key_at(ordinal)
        found = cluster.execute(session.delete(key))
        assert found == drive(model.delete(key))
        deleted += found

    ranges = [(0, dataset.key_space)] + [
        (low, low + rng.choice((50, 900, 4_000)))
        for low in (rng.randrange(dataset.key_space) for _ in range(30))
    ]
    expected = [drive(model.range_scan(low, high)) for low, high in ranges]
    assert [cluster.execute(session.range_scan(*r)) for r in ranges] == expected

    removed = sum(
        cluster.execute(collector.sweep())["removed"]
        for collector in _collectors(design, index, cluster, compute)
    )
    assert removed == deleted
    assert [cluster.execute(session.range_scan(*r)) for r in ranges] == expected


class _CountingAccessor(InMemoryAccessor):
    def __init__(self, page_size: int) -> None:
        super().__init__(page_size)
        self.reads = []

    def read_node(self, raw_ptr, _ignored=False):
        self.reads.append(raw_ptr)
        return super().read_node(raw_ptr)


def test_a_leaf_whose_entries_past_the_range_are_all_tombstoned_ends_the_scan():
    accessor = _CountingAccessor(page_size=256)
    tree = BLinkTree(accessor, InMemoryRootRef(accessor))
    for key in range(200):
        drive(tree.insert(key, key))
    _ptr, leaf = drive(tree._find_leaf(100))
    keys = list(leaf.keys)
    half = len(keys) // 2
    assert half >= 2 and leaf.high_key < 200
    for key in keys[half:]:
        assert drive(tree.delete(key))
    accessor.reads.clear()
    # Every entry of the leaf at or past *high* is tombstoned, so none is a
    # live key: the high-key test has to end the scan.
    assert drive(tree.range_scan(keys[0], keys[half])) == [
        (key, key) for key in keys[:half]
    ]
    assert leaf.right not in accessor.reads


@pytest.mark.parametrize(
    "case",
    ["fine-grained", "coarse-grained/range", "coarse-grained/hash", "hybrid/range",
     "hybrid/hash"],
)
def test_duplicates_come_back_in_insertion_order(case):
    """Under hash partitioning the scan is scattered over every partition
    and merged: the merge sorts by key alone, stably, so the duplicates keep
    the order their one partition's leaf holds them in."""
    design, _, partitioning = case.partition("/")
    cluster = Cluster(ClusterConfig(seed=5))
    dataset = generate_dataset(2_000, gap=8)
    options = {}
    if DESIGNS[design] is not FineGrainedIndex:
        options["key_space"] = dataset.key_space
        if partitioning == "hash":
            options["partitioner"] = HashPartitioner(cluster.num_memory_servers)
    index = DESIGNS[design].build(cluster, "dups", dataset.pairs(), **options)
    session = index.session(cluster.new_compute_server())
    key = dataset.key_at(700)
    for value in (5, 3, 9, 1):
        cluster.execute(session.insert(key, value))
    got = cluster.execute(session.range_scan(dataset.key_at(690), dataset.key_at(710)))
    assert [value for found, value in got if found == key] == [700, 5, 3, 9, 1]
    assert [found for found, _value in got] == sorted(found for found, _value in got)
    assert len(got) == 24


def test_merge_partials_sorts_by_key_and_keeps_duplicates_in_order():
    partials = [[(8, 9), (8, 1), (16, 0)], [(4, 7), (12, 2)], []]
    assert merge_partials(partials) == [(4, 7), (8, 9), (8, 1), (12, 2), (16, 0)]
