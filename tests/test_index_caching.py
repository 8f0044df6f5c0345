"""Tests for client-side inner-node caching (Appendix A.4)."""

import pytest

from repro import Cluster, ClusterConfig, FineGrainedIndex, cached_session
from repro.rdma.verbs import Verb


@pytest.fixture
def fg(dataset):
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=21))
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    return cluster, dataset, index


def total_reads(cluster):
    return sum(server.stats.ops[Verb.READ] for server in cluster.memory_servers)


def test_cached_lookups_are_correct(fg):
    cluster, dataset, index = fg
    session = cached_session(index, cluster.new_compute_server(), depth=3)
    for i in (0, 5, 77, 1999):
        assert cluster.execute(session.lookup(dataset.key_at(i))) == [i]


def test_repeat_lookups_save_reads(fg):
    cluster, dataset, index = fg
    session = cached_session(index, cluster.new_compute_server(), depth=3)
    cluster.execute(session.lookup(dataset.key_at(100)))
    warm = total_reads(cluster)
    cluster.execute(session.lookup(dataset.key_at(100)))
    # Only the leaf READ goes to the network; inner levels come from cache.
    assert total_reads(cluster) - warm == 1
    assert session._tree.acc.hits > 0


def test_leaves_never_cached(fg):
    cluster, dataset, index = fg
    session = cached_session(index, cluster.new_compute_server(), depth=3)
    writer = index.session(cluster.new_compute_server())
    key = dataset.key_at(42)
    assert cluster.execute(session.lookup(key)) == [42]
    cluster.execute(writer.insert(key, 4242))
    # The cached session sees the new value immediately: leaf reads are
    # always fresh.
    assert sorted(cluster.execute(session.lookup(key))) == [42, 4242]


def test_writes_invalidate_cached_pages(fg):
    cluster, dataset, index = fg
    session = cached_session(index, cluster.new_compute_server(), depth=3)
    accessor = session._tree.acc
    cluster.execute(session.lookup(dataset.key_at(7)))
    assert len(accessor._cache) > 0
    # Insert through the same session: pages it locks get invalidated.
    cluster.execute(session.insert(dataset.key_at(7) + 1, 1))
    assert cluster.execute(session.lookup(dataset.key_at(7) + 1)) == [1]


def test_capacity_bounds_cache(fg):
    cluster, dataset, index = fg
    session = cached_session(
        index, cluster.new_compute_server(), capacity=2, depth=3
    )
    for i in range(0, 2000, 97):
        cluster.execute(session.lookup(dataset.key_at(i)))
    assert len(session._tree.acc._cache) <= 2


def test_cached_session_survives_concurrent_splits(fg):
    """Stale cached inner nodes are routed around via move-right."""
    cluster, dataset, index = fg
    reader = cached_session(index, cluster.new_compute_server(), depth=3)
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
    assert reader._tree.acc.hit_rate > 0


# -- coherent-cache mechanics (docs/caching.md) -----------------------------


class _FakeNode:
    """Just enough of a Node for RemoteCache bookkeeping."""

    def __init__(self, level=2, version=2):
        self.level = level
        self.version = version

    def clone(self):
        return _FakeNode(self.level, self.version)


def test_lru_eviction_order():
    from repro.index.caching import RemoteCache

    cache = RemoteCache(capacity=3, depth=3)
    for ptr in (1, 2, 3):
        cache.store(ptr, _FakeNode(), epoch=0)
    # Touch 1 so 2 becomes the least recently used entry.
    assert cache.lookup(1, epoch=0) is not None
    cache.store(4, _FakeNode(), epoch=0)
    assert cache.lookup(2, epoch=0) is None
    assert all(
        cache.lookup(ptr, epoch=0) is not None for ptr in (1, 3, 4)
    )
    assert cache.evictions == 1
    assert len(cache) == 3


def test_capacity_zero_disables_cleanly(fg):
    from repro import CacheConfig, Cluster, ClusterConfig, FineGrainedIndex

    _cluster, dataset, _index = fg
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=4,
            seed=21,
            cache=CacheConfig(depth=2, capacity=0),
        )
    )
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    for i in (0, 5, 5, 77, 77):
        assert cluster.execute(session.lookup(dataset.key_at(i))) == [i]
    accessor = session._tree.acc
    assert len(accessor.cache) == 0
    assert accessor.hits == 0
    assert accessor.misses > 0


def test_epoch_bump_invalidates_only_the_affected_index(dataset):
    """Splitting index "left" must not cost index "right" a single
    revalidation: structure epochs are per-descriptor, not global."""
    from repro import CacheConfig, Cluster, ClusterConfig, FineGrainedIndex

    cluster = Cluster(
        ClusterConfig(num_memory_servers=4, seed=21, cache=CacheConfig(depth=3))
    )
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

    for i in range(0, 2000, 40):
        cluster.execute(reader_left.lookup(dataset.key_at(i)))
        cluster.execute(reader_right.lookup(dataset.key_at(i)))
    assert reader_left._tree.acc.cache.revalidations > 0
    assert reader_right._tree.acc.cache.revalidations == 0
    assert reader_right._tree.acc.hits > 0


def test_counters_reconcile_with_verb_counts(dataset):
    """Read-only invariant: every cache miss is exactly one remote READ,
    every hit is zero — so the QP verb ledger must equal the miss count.
    The namscope registry must agree with the cache's own counters."""
    from repro import CacheConfig, Cluster, ClusterConfig, FineGrainedIndex
    from repro.obs import ObservabilityConfig

    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=4,
            seed=21,
            cache=CacheConfig(depth=3),
            observability=ObservabilityConfig(enabled=True),
        )
    )
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    # One warm-up lookup so the root-pointer word is resolved (a READ
    # outside the node-cache path) before the ledger window opens.
    cluster.execute(session.lookup(dataset.key_at(0)))
    accessor = session._tree.acc
    baseline = total_reads(cluster)
    misses_before = accessor.misses
    for i in range(0, 2000, 17):
        cluster.execute(session.lookup(dataset.key_at(i)))
    read_delta = total_reads(cluster) - baseline

    assert accessor.misses > 0 and accessor.hits > 0
    assert accessor.cache.revalidations == 0  # no SMOs ran
    assert read_delta == accessor.misses - misses_before

    registry = cluster.obs.registry
    assert registry.counter("nam_cache_hits_total").value == accessor.hits
    assert registry.counter("nam_cache_misses_total").value == accessor.misses
    assert registry.counter("nam_cache_revalidations_total").value == 0
    assert registry.counter("nam_cache_invalidations_total").value == 0


def test_stale_lock_path_invalidates_and_recovers(fg):
    """Regression (lock-path staleness): a lock attempt carrying a
    version served from a stale cached image must fail, drop the image,
    and let the retry lock successfully on fresh bytes — otherwise every
    retry would re-read the same stale page and re-fail forever."""
    cluster, dataset, index = fg
    compute = cluster.new_compute_server()
    session = cached_session(index, compute, depth=3)
    accessor = session._tree.acc
    root_raw = cluster.execute(session._tree.root.get())

    cluster.execute(accessor.read_node(root_raw))  # miss: fills the cache
    node = cluster.execute(accessor.read_node(root_raw))  # hit: cache-served
    assert accessor.hits == 1
    stale_version = node.version

    # A concurrent writer bumps the page's version without any SMO (so
    # the structure epoch cannot save us — only lock-path validation can).
    other = index.session(cluster.new_compute_server())._tree.acc
    fresh = cluster.execute(other.read_node(root_raw))
    assert cluster.execute(other.try_lock(root_raw, fresh.version))
    cluster.execute(other.unlock_write(root_raw, fresh))

    # The stale-served lock attempt fails and evicts the stale image.
    assert not cluster.execute(accessor.try_lock(root_raw, stale_version))
    assert accessor.cache.revalidation_failures == 1
    assert root_raw not in accessor._cache

    # Retry refetches fresh bytes and the lock now succeeds.
    current = cluster.execute(accessor.read_node(root_raw))
    assert current.version > stale_version
    assert cluster.execute(accessor.try_lock(root_raw, current.version))
    cluster.execute(accessor.unlock_nochange(root_raw))
