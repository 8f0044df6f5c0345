"""Heavy mixed-operation stress with concurrent garbage collection.

Every design runs tens of racing clients issuing all five operations
while its epoch GC sweeps in the background; afterwards the live-entry
count must match exact bookkeeping and the trees must validate
structurally. This is the suite's strongest end-to-end consistency check.
"""

import numpy as np
import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
    check_tree,
)
from repro.workloads import generate_dataset


@pytest.mark.parametrize(
    "cls", [CoarseGrainedIndex, FineGrainedIndex, HybridIndex],
    ids=lambda cls: cls.design,
)
def test_mixed_ops_with_concurrent_gc(cls):
    dataset = generate_dataset(2_000, gap=8)
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=99))
    kwargs = {} if cls is FineGrainedIndex else {"key_space": dataset.key_space}
    index = cls.build(cluster, "stress", *dataset.columns(), **kwargs)
    compute = cluster.new_compute_server()
    if cls is FineGrainedIndex:
        collectors = [index.start_gc(compute, epoch_s=0.002)]
    elif cls is HybridIndex:
        collectors = index.start_gc(compute, epoch_s=0.002)
    else:
        collectors = index.start_gc(epoch_s=0.002)

    inserted, deleted = [], []

    def client(cid):
        rng = np.random.default_rng(cid * 7 + 1)
        session = index.session(compute)
        for i in range(60):
            draw = rng.random()
            key = int(rng.integers(0, dataset.key_space))
            if draw < 0.35:
                yield from session.insert(key, cid * 10_000 + i)
                inserted.append(key)
            elif draw < 0.5:
                found = yield from session.delete(key)
                if found:
                    deleted.append(key)
            elif draw < 0.6:
                yield from session.update(key, cid * 10_000 + i)
            elif draw < 0.85:
                yield from session.lookup(key)
            else:
                yield from session.range_scan(key, key + 400)

    procs = [cluster.spawn(client(cid)) for cid in range(30)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    for collector in collectors:
        collector.stopped = True

    session = index.session(compute)
    got = cluster.execute(session.range_scan(0, dataset.key_space))
    expected = dataset.num_keys + len(inserted) - len(deleted)
    assert len(got) == expected

    if cls is FineGrainedIndex:
        trees = [index.tree_for(compute)]
    elif cls is CoarseGrainedIndex:
        trees = [index.local_tree(s) for s in range(4)]
    else:
        trees = [index.gc_tree(compute, s) for s in range(4)]
    reports = [cluster.execute(check_tree(tree)) for tree in trees]
    assert [report.violations for report in reports] == [[] for _ in trees]
    assert sum(report.entries for report in reports) == expected
