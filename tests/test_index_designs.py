"""Behavioural tests run identically against all three index designs."""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
    check_tree,
    verify_index,
)
from repro.btree.node import MAX_KEY
from repro.errors import IndexError_

DESIGN_CLASSES = [CoarseGrainedIndex, FineGrainedIndex, HybridIndex]


def build(cls, cluster, dataset, name="idx", **kwargs):
    if cls is FineGrainedIndex:
        return cls.build(cluster, name, *dataset.columns(), **kwargs)
    return cls.build(
        cluster, name, *dataset.columns(), key_space=dataset.key_space, **kwargs
    )


@pytest.fixture(params=DESIGN_CLASSES, ids=lambda cls: cls.design)
def setup(request, dataset):
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=3))
    index = build(request.param, cluster, dataset)
    session = index.session(cluster.new_compute_server())
    return cluster, dataset, index, session


class TestLookup:
    def test_existing_keys(self, setup):
        cluster, dataset, _index, session = setup
        for ordinal in (0, 1, 999, 1999):
            key = dataset.key_at(ordinal)
            assert cluster.execute(session.lookup(key)) == [ordinal]

    def test_missing_keys(self, setup):
        cluster, dataset, _index, session = setup
        assert cluster.execute(session.lookup(3)) == []  # gap key
        assert cluster.execute(session.lookup(dataset.key_space + 100)) == []

    def test_lookup_registers_in_catalog(self, setup):
        cluster, _dataset, index, _session = setup
        descriptor = cluster.catalog.lookup(index.name)
        assert descriptor.design == index.design


class TestRangeScan:
    def test_full_scan(self, setup):
        cluster, dataset, _index, session = setup
        got = cluster.execute(session.range_scan(0, dataset.key_space))
        assert got == dataset.pairs()

    def test_interior_scan_sorted(self, setup):
        cluster, dataset, _index, session = setup
        low, high = dataset.key_at(500), dataset.key_at(700)
        got = cluster.execute(session.range_scan(low, high))
        assert got == [(dataset.key_at(i), i) for i in range(500, 700)]

    def test_cross_partition_scan(self, setup):
        """A scan spanning partition boundaries merges correctly."""
        cluster, dataset, _index, session = setup
        low = dataset.key_at(400)  # partition width is 500 keys
        high = dataset.key_at(1600)
        got = cluster.execute(session.range_scan(low, high))
        assert got == [(dataset.key_at(i), i) for i in range(400, 1600)]

    def test_empty_range(self, setup):
        cluster, _dataset, _index, session = setup
        assert cluster.execute(session.range_scan(5, 5)) == []


class TestInsert:
    def test_insert_new_key(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(100) + 1  # a gap key
        cluster.execute(session.insert(key, 12345))
        assert cluster.execute(session.lookup(key)) == [12345]

    def test_insert_duplicate(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(50)
        cluster.execute(session.insert(key, 999))
        assert sorted(cluster.execute(session.lookup(key))) == [50, 999]

    def test_inserts_visible_in_scans(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(10) + 3
        cluster.execute(session.insert(key, 777))
        got = cluster.execute(session.range_scan(dataset.key_at(10), dataset.key_at(12)))
        assert (key, 777) in got

    def test_many_inserts_trigger_splits(self, setup):
        cluster, dataset, _index, session = setup
        base = dataset.key_at(300)
        for i in range(200):
            cluster.execute(session.insert(base + 1 + (i % 7), 1000 + i))
        total = cluster.execute(
            session.range_scan(base, base + 8)
        )
        assert len(total) == 201  # 200 inserts + the original key


class TestUpdate:
    def test_update_existing(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(321)
        assert cluster.execute(session.update(key, 777)) is True
        assert cluster.execute(session.lookup(key)) == [777]

    def test_update_missing_returns_false(self, setup):
        cluster, _dataset, _index, session = setup
        assert cluster.execute(session.update(5, 1)) is False

    def test_update_replaces_only_one_duplicate(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(60)
        cluster.execute(session.insert(key, 999))
        assert cluster.execute(session.update(key, 111)) is True
        assert sorted(cluster.execute(session.lookup(key))) == [111, 999]

    def test_update_after_delete_misses(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(61)
        cluster.execute(session.delete(key))
        assert cluster.execute(session.update(key, 5)) is False


class TestDelete:
    def test_delete_existing(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(123)
        assert cluster.execute(session.delete(key)) is True
        assert cluster.execute(session.lookup(key)) == []

    def test_delete_missing(self, setup):
        cluster, _dataset, _index, session = setup
        assert cluster.execute(session.delete(5)) is False

    def test_deleted_keys_skipped_by_scans(self, setup):
        cluster, dataset, _index, session = setup
        key = dataset.key_at(800)
        cluster.execute(session.delete(key))
        got = cluster.execute(
            session.range_scan(dataset.key_at(799), dataset.key_at(802))
        )
        assert all(k != key for k, _v in got)


class TestArgumentValidation:
    """Every design refuses the reserved key and payloads carrying the
    tombstone bit — whatever way it reaches its leaves."""

    def test_reserved_arguments_rejected_index_unchanged(self, setup):
        cluster, dataset, _index, session = setup
        loaded_key = dataset.key_at(40)
        before = cluster.execute(session.range_scan(0, MAX_KEY))
        for operation in (
            lambda: session.insert(MAX_KEY, 1),
            lambda: session.insert(17, 1 << 63),
            lambda: session.update(loaded_key, 1 << 63),
        ):
            with pytest.raises(IndexError_):
                cluster.execute(operation())
        assert cluster.execute(session.range_scan(0, MAX_KEY)) == before
        assert cluster.execute(session.lookup(loaded_key)) == [40]
        assert cluster.execute(session.lookup(17)) == []


class TestConcurrency:
    def test_parallel_inserts_all_land(self, setup):
        cluster, dataset, index, _session = setup
        compute = cluster.new_compute_server()
        sessions = [index.session(compute) for _ in range(20)]

        def client(cid, sess):
            for i in range(30):
                key = dataset.key_at((cid * 37 + i * 13) % dataset.num_keys) + 1
                yield from sess.insert(key, cid * 100 + i)

        procs = [cluster.spawn(client(cid, sess))
                 for cid, sess in enumerate(sessions)]
        cluster.sim.run_until_complete(cluster.sim.all_of(procs))
        got = cluster.execute(
            sessions[0].range_scan(0, dataset.key_space)
        )
        assert len(got) == dataset.num_keys + 20 * 30

    def test_readers_race_writers_without_errors(self, setup):
        cluster, dataset, index, _session = setup
        compute = cluster.new_compute_server()

        def writer(sess):
            for i in range(40):
                yield from sess.insert(dataset.key_at(i * 17 % 500) + 2, i)

        def reader(sess):
            total = 0
            for i in range(40):
                values = yield from sess.lookup(dataset.key_at(i * 29 % 500))
                total += len(values)
            return total

        writers = [cluster.spawn(writer(index.session(compute))) for _ in range(5)]
        readers = [cluster.spawn(reader(index.session(compute))) for _ in range(5)]
        cluster.sim.run_until_complete(cluster.sim.all_of(writers + readers))
        for proc in readers:
            assert proc.value == 40  # every original key found exactly once


class TestClientTrees:
    """``index.client_trees`` is one interface over all three designs: the
    one-sided handles the verifier walks."""

    #: design -> (trees, nodes, leaves, head nodes, entries, unreachable)
    #: of ``verify_index`` over the ``setup`` build, recorded at the commit
    #: before the handles got one constructor.
    VERIFIED = {
        "coarse-grained": (4, 52, 48, 0, 2000, 0),
        "fine-grained": (1, 57, 48, 6, 2000, 0),
        "hybrid": (4, 60, 48, 8, 2000, 0),
    }

    def test_handles_cover_every_entry_once(self, setup):
        cluster, dataset, index, _session = setup
        handles = index.client_trees(cluster.new_compute_server())
        labels = [label for label, _tree in handles]
        assert len(set(labels)) == len(labels) == self.VERIFIED[index.design][0]
        reports = [cluster.execute(check_tree(tree, label)) for label, tree in handles]
        assert [r.violations for r in reports] == [[] for _ in handles]
        assert sum(report.entries for report in reports) == dataset.num_keys

    def test_verifier_counts_are_pinned(self, setup):
        cluster, _dataset, index, _session = setup
        report = verify_index(cluster, index)
        assert report.ok, report.violations
        assert (
            report.trees, report.nodes, report.leaves, report.head_nodes,
            report.entries, report.unreachable_pages,
        ) == self.VERIFIED[index.design]
