"""Tests for client-side inner-node caching (Appendix A.4)."""

import pytest

from repro import CacheConfig, Cluster, ClusterConfig, FineGrainedIndex, TreeConfig
from repro.index.caching import CachingRemoteAccessor
from repro.obs import ObservabilityConfig
from repro.rdma.verbs import Verb


def cached_cluster():
    """Four memory servers, every fine-grained session caching the top
    three levels, and the hub on: its ``nam_cache_*`` counters are the
    cache's ledger."""
    return Cluster(
        ClusterConfig(
            num_memory_servers=4,
            seed=21,
            cache=CacheConfig(depth=3),
            observability=ObservabilityConfig(enabled=True),
        )
    )


@pytest.fixture
def fg(dataset):
    cluster = cached_cluster()
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    return cluster, dataset, index


def total_reads(cluster):
    return sum(server.stats.ops[Verb.READ] for server in cluster.memory_servers)


def counter(cluster, name):
    return cluster.obs.registry.counter(f"nam_cache_{name}_total").value


def test_cached_lookups_are_correct(fg):
    cluster, dataset, index = fg
    session = index.session(cluster.new_compute_server())
    assert isinstance(session._tree.acc, CachingRemoteAccessor)
    for i in (0, 5, 77, 1999):
        assert cluster.execute(session.lookup(dataset.key_at(i))) == [i]


def test_repeat_lookups_save_reads(fg):
    cluster, dataset, index = fg
    session = index.session(cluster.new_compute_server())
    cluster.execute(session.lookup(dataset.key_at(100)))
    warm = total_reads(cluster)
    cluster.execute(session.lookup(dataset.key_at(100)))
    # Only the leaf READ goes to the network; inner levels come from cache.
    assert total_reads(cluster) - warm == 1
    assert counter(cluster, "hits") > 0


def test_leaves_never_cached(fg):
    cluster, dataset, index = fg
    session = index.session(cluster.new_compute_server())
    writer = index.session(cluster.new_compute_server())
    key = dataset.key_at(42)
    assert cluster.execute(session.lookup(key)) == [42]
    cluster.execute(writer.insert(key, 4242))
    # The cached session sees the new value immediately: leaf reads are
    # always fresh.
    assert sorted(cluster.execute(session.lookup(key))) == [42, 4242]
    assert all(entry[2].is_inner for entry in session._tree.acc.entries.values())


def test_writes_invalidate_cached_pages(fg):
    cluster, dataset, index = fg
    session = index.session(cluster.new_compute_server())
    accessor = session._tree.acc
    cluster.execute(session.lookup(dataset.key_at(7)))
    assert len(accessor.entries) > 0
    # Insert through the same session: pages it locks get invalidated.
    cluster.execute(session.insert(dataset.key_at(7) + 1, 1))
    assert cluster.execute(session.lookup(dataset.key_at(7) + 1)) == [1]


def test_capacity_bounds_cache(fg):
    cluster, dataset, index = fg
    compute = cluster.new_compute_server()
    session = index.session(compute)
    session._tree.acc = CachingRemoteAccessor(index, compute, depth=3, capacity=2)
    for i in range(0, 2000, 97):
        cluster.execute(session.lookup(dataset.key_at(i)))
    assert len(session._tree.acc.entries) == 2


def test_cached_reader_survives_concurrent_splits(fg):
    """Stale cached inner nodes are routed around via move-right."""
    cluster, dataset, index = fg
    reader = index.session(cluster.new_compute_server())
    writer = index.session(cluster.new_compute_server())
    # Warm the cache.
    for i in range(0, 2000, 40):
        cluster.execute(reader.lookup(dataset.key_at(i)))
    # Force many splits near one spot.
    for i in range(250):
        cluster.execute(writer.insert(dataset.key_at(1000) + 1 + (i % 7), i))
    # Cached traversals still find both old and new keys.
    assert cluster.execute(reader.lookup(dataset.key_at(1000))) == [1000]
    got = cluster.execute(
        reader.range_scan(dataset.key_at(1000), dataset.key_at(1001))
    )
    assert len(got) == 251
    assert counter(cluster, "hits") > 0


# -- coherent-cache mechanics (docs/caching.md) -----------------------------


def test_lru_eviction_order(dataset):
    """At 256-byte pages the root has three inner children: four inner
    pages through a three-page cache evict the least recently used."""
    cluster = Cluster(
        ClusterConfig(num_memory_servers=4, seed=21, tree=TreeConfig(page_size=256))
    )
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    compute = cluster.new_compute_server()
    accessor = CachingRemoteAccessor(index, compute, depth=3, capacity=3)
    root = cluster.execute(index.tree_for(compute).root.get())
    first, second, third = cluster.execute(accessor.read_node(root)).values
    for child in (first, second):
        assert cluster.execute(accessor.read_node(child)).is_inner
    assert list(accessor.entries) == [root, first, second]
    # Touch the root so *first* becomes the least recently used entry.
    cluster.execute(accessor.read_node(root))
    cluster.execute(accessor.read_node(third))
    assert list(accessor.entries) == [second, root, third]


def test_epoch_bump_invalidates_only_the_affected_index(dataset):
    """Splitting index "left" must not cost index "right" a single
    revalidation: structure epochs are per-descriptor, not global."""
    cluster = cached_cluster()
    left = FineGrainedIndex.build(cluster, "left", *dataset.columns())
    right = FineGrainedIndex.build(cluster, "right", *dataset.columns())
    reader_left = left.session(cluster.new_compute_server())
    reader_right = right.session(cluster.new_compute_server())
    for i in range(0, 2000, 40):  # warm both caches
        cluster.execute(reader_left.lookup(dataset.key_at(i)))
        cluster.execute(reader_right.lookup(dataset.key_at(i)))

    epoch_before = cluster.catalog.structure_epoch("left")
    writer = left.session(cluster.new_compute_server())
    for i in range(250):  # force splits (and separator installs) in "left"
        cluster.execute(writer.insert(dataset.key_at(1000) + 1 + (i % 7), i))
    assert cluster.catalog.structure_epoch("left") > epoch_before
    assert cluster.catalog.structure_epoch("right") == 0

    # Only "left" has moved its epoch, so every revalidation is its reader's.
    revalidations = counter(cluster, "revalidations")
    hits = counter(cluster, "hits")
    for i in range(0, 2000, 40):
        cluster.execute(reader_right.lookup(dataset.key_at(i)))
    assert counter(cluster, "revalidations") == revalidations
    assert counter(cluster, "hits") > hits
    for i in range(0, 2000, 40):
        cluster.execute(reader_left.lookup(dataset.key_at(i)))
    assert counter(cluster, "revalidations") > revalidations


def test_counters_reconcile_with_verb_counts(dataset):
    """Read-only invariant: every cache miss is exactly one remote READ,
    every hit is zero — so the QP verb ledger must equal the miss count
    the namscope registry keeps."""
    cluster = cached_cluster()
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    # One warm-up lookup so the root-pointer word is resolved (a READ
    # outside the node-cache path) before the ledger window opens.
    cluster.execute(session.lookup(dataset.key_at(0)))
    baseline = total_reads(cluster)
    misses_before = counter(cluster, "misses")
    for i in range(0, 2000, 17):
        cluster.execute(session.lookup(dataset.key_at(i)))
    read_delta = total_reads(cluster) - baseline

    assert counter(cluster, "misses") > misses_before
    assert counter(cluster, "hits") > 0
    assert read_delta == counter(cluster, "misses") - misses_before
    assert counter(cluster, "revalidations") == 0  # no SMOs ran
    assert counter(cluster, "invalidations") == 0


def test_stale_lock_path_invalidates_and_recovers(fg):
    """Regression (lock-path staleness): a lock attempt carrying a
    version served from a stale cached image must fail, drop the image,
    and let the retry lock successfully on fresh bytes — otherwise every
    retry would re-read the same stale page and re-fail forever."""
    cluster, dataset, index = fg
    session = index.session(cluster.new_compute_server())
    accessor = session._tree.acc
    root_raw = cluster.execute(session._tree.root.get())

    cluster.execute(accessor.read_node(root_raw))  # miss: fills the cache
    node = cluster.execute(accessor.read_node(root_raw))  # hit: cache-served
    assert counter(cluster, "hits") == 1
    stale_version = node.version

    # A concurrent writer bumps the page's version without any SMO (so
    # the structure epoch cannot save us — only lock-path validation can).
    other = index.session(cluster.new_compute_server())._tree.acc
    fresh = cluster.execute(other.read_node(root_raw))
    assert cluster.execute(other.try_lock(root_raw, fresh.version))
    cluster.execute(other.unlock_write(root_raw, fresh))

    # The stale-served lock attempt fails and evicts the stale image.
    assert not cluster.execute(accessor.try_lock(root_raw, stale_version))
    assert counter(cluster, "revalidation_misses") == 1
    assert root_raw not in accessor.entries

    # Retry refetches fresh bytes and the lock now succeeds.
    current = cluster.execute(accessor.read_node(root_raw))
    assert current.version > stale_version
    assert cluster.execute(accessor.try_lock(root_raw, current.version))
    cluster.execute(accessor.unlock_nochange(root_raw))
