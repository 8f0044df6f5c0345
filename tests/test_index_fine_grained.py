"""Design-specific tests for the fine-grained (one-sided) index."""

from repro import Cluster, ClusterConfig, FineGrainedIndex, check_tree
from repro.btree import key_columns
from repro.config import TreeConfig
from repro.rdma.verbs import Verb


def test_pages_spread_across_all_servers(cluster, pairs):
    FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))
    allocated = [
        server.allocator.pages_allocated for server in cluster.memory_servers
    ]
    assert all(count > 5 for count in allocated)
    assert max(allocated) - min(allocated) <= 5


def test_no_rpcs_ever_issued(cluster, dataset):
    """The fine-grained design never involves the memory-server CPUs."""
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    cluster.execute(session.lookup(dataset.key_at(10)))
    cluster.execute(session.insert(dataset.key_at(10) + 1, 5))
    cluster.execute(session.range_scan(0, dataset.key_at(100)))
    cluster.execute(session.delete(dataset.key_at(10)))
    for server in cluster.memory_servers:
        assert server.rpcs_handled == 0
        assert server.stats.ops[Verb.SEND] == 0


def test_lookup_uses_one_sided_reads(cluster, dataset):
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    reads_before = sum(s.stats.ops[Verb.READ] for s in cluster.memory_servers)
    cluster.execute(session.lookup(dataset.key_at(42)))
    reads_after = sum(s.stats.ops[Verb.READ] for s in cluster.memory_servers)
    # Root-to-leaf traversal: height many page READs (first lookup also
    # fetches the root pointer word).
    assert 2 <= reads_after - reads_before <= 6


def test_root_pointer_cached_after_first_use(cluster, dataset):
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    cluster.execute(session.lookup(dataset.key_at(1)))
    reads_first = sum(s.stats.ops[Verb.READ] for s in cluster.memory_servers)
    cluster.execute(session.lookup(dataset.key_at(2)))
    reads_second = sum(s.stats.ops[Verb.READ] for s in cluster.memory_servers)
    # The second lookup saves the 8-byte root-word READ.
    assert reads_second - reads_first < reads_first


def test_insert_uses_remote_lock_protocol(cluster, dataset):
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    cas_before = sum(s.stats.ops[Verb.CAS] for s in cluster.memory_servers)
    faa_before = sum(s.stats.ops[Verb.FETCH_ADD] for s in cluster.memory_servers)
    writes_before = sum(s.stats.ops[Verb.WRITE] for s in cluster.memory_servers)
    cluster.execute(session.insert(dataset.key_at(9) + 1, 1))
    assert sum(s.stats.ops[Verb.CAS] for s in cluster.memory_servers) == cas_before + 1
    assert sum(s.stats.ops[Verb.FETCH_ADD] for s in cluster.memory_servers) == faa_before + 1
    assert sum(s.stats.ops[Verb.WRITE] for s in cluster.memory_servers) == writes_before + 1


def test_remote_allocation_spreads_round_robin(cluster, dataset):
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    before = [server.allocator.pages_allocated for server in cluster.memory_servers]
    # Insert enough entries at one spot to split several leaves.
    for i in range(300):
        cluster.execute(session.insert(dataset.key_at(i % 11) + 1, i))
    after = [server.allocator.pages_allocated for server in cluster.memory_servers]
    new_pages = [b - a for a, b in zip(before, after)]
    assert sum(new_pages) >= 4
    assert max(new_pages) - min(new_pages) <= 3  # round-robin balance


def test_root_split_updates_remote_root_word(dataset):
    """Grow a tiny tree until the root splits; new sessions must see it."""
    config = ClusterConfig(num_memory_servers=2, seed=1)
    cluster = Cluster(config)
    index = FineGrainedIndex.build(cluster, "idx", *key_columns([(0, 0)]))
    session = index.session(cluster.new_compute_server())
    for i in range(1, 200):
        cluster.execute(session.insert(i * 2, i))
    fresh = index.session(cluster.new_compute_server())
    tree = index.tree_for(cluster.new_compute_server())
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
    assert report.entries == 200
    assert cluster.execute(tree.height()) >= 2
    assert cluster.execute(fresh.lookup(100)) == [50]


def test_stale_cached_root_still_reaches_all_keys(dataset):
    """B-link move-right makes pre-split roots safe to traverse from."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
    index = FineGrainedIndex.build(cluster, "idx", *key_columns([(0, 0)]))
    old_session = index.session(cluster.new_compute_server())
    cluster.execute(old_session.lookup(0))  # caches the pre-growth root
    writer = index.session(cluster.new_compute_server())
    for i in range(1, 300):
        cluster.execute(writer.insert(i * 2, i))
    # The old session still finds keys inserted far to the right.
    assert cluster.execute(old_session.lookup(500)) == [250]


def test_head_nodes_prefetch_reduces_scan_latency(dataset):
    results = {}
    for heads in (0, 8):
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=4, seed=2, tree=TreeConfig(head_node_interval=heads)
            )
        )
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        session = index.session(cluster.new_compute_server())
        start = cluster.now
        got = cluster.execute(session.range_scan(0, dataset.key_space))
        results[heads] = (cluster.now - start, len(got))
    assert results[0][1] == results[8][1] == dataset.num_keys
    assert results[8][0] < results[0][0]  # prefetching is faster


def test_disabling_head_nodes_removes_head_pages(small_config, pairs):
    cluster = Cluster(small_config.with_(tree=TreeConfig(head_node_interval=0)))
    index = FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))
    assert index.use_head_nodes is False
