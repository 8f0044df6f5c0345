"""Multiple indexes coexisting on one cluster."""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
)
from repro.btree import key_columns
from repro.workloads import generate_dataset


@pytest.fixture
def rig():
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=13))
    compute = cluster.new_compute_server()
    return cluster, compute


def test_two_indexes_of_same_design_are_isolated(rig):
    cluster, compute = rig
    a = CoarseGrainedIndex.build(cluster, "a", *key_columns([(1, 10), (2, 20)]), key_space=100)
    b = CoarseGrainedIndex.build(cluster, "b", *key_columns([(1, 99)]), key_space=100)
    sa, sb = a.session(compute), b.session(compute)
    assert cluster.execute(sa.lookup(1)) == [10]
    assert cluster.execute(sb.lookup(1)) == [99]
    cluster.execute(sa.insert(3, 30))
    assert cluster.execute(sb.lookup(3)) == []


def test_mixed_designs_share_the_cluster(rig):
    cluster, compute = rig
    dataset = generate_dataset(500, gap=4)
    cg = CoarseGrainedIndex.build(
        cluster, "cg", *dataset.columns(), key_space=dataset.key_space
    )
    fg = FineGrainedIndex.build(cluster, "fg", *dataset.columns())
    hy = HybridIndex.build(
        cluster, "hy", *dataset.columns(), key_space=dataset.key_space
    )
    sessions = [idx.session(compute) for idx in (cg, fg, hy)]
    for session in sessions:
        assert cluster.execute(session.lookup(dataset.key_at(42))) == [42]
    # Writes to one design do not leak into the others.
    cluster.execute(sessions[1].insert(dataset.key_at(42) + 1, 777))
    assert cluster.execute(sessions[0].lookup(dataset.key_at(42) + 1)) == []
    assert cluster.execute(sessions[2].lookup(dataset.key_at(42) + 1)) == []
    assert cluster.execute(sessions[1].lookup(dataset.key_at(42) + 1)) == [777]
    assert sorted(cluster.catalog.names()) == ["cg", "fg", "hy"]


def test_concurrent_traffic_across_indexes(rig):
    cluster, compute = rig
    dataset = generate_dataset(300, gap=4)
    cg = CoarseGrainedIndex.build(
        cluster, "cg", *dataset.columns(), key_space=dataset.key_space
    )
    fg = FineGrainedIndex.build(cluster, "fg", *dataset.columns())

    def worker(index, offset):
        session = index.session(compute)
        for i in range(50):
            yield from session.insert(dataset.key_at(i * 3 % 300) + offset, i)
            yield from session.lookup(dataset.key_at(i))

    procs = [
        cluster.spawn(worker(cg, 1)),
        cluster.spawn(worker(fg, 2)),
        cluster.spawn(worker(cg, 3)),
        cluster.spawn(worker(fg, 1)),
    ]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    total_cg = cluster.execute(cg.session(compute).range_scan(0, dataset.key_space))
    total_fg = cluster.execute(fg.session(compute).range_scan(0, dataset.key_space))
    assert len(total_cg) == 300 + 100
    assert len(total_fg) == 300 + 100
