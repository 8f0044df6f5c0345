"""What range scans return, pinned as hashes.

The engine goldens hash latencies and operation counts, and the workload
runner throws scan results away, so a scan that built the wrong pairs —
a tombstone kept, a duplicate reordered, a leaf skipped or read twice —
would pass every one of them. Here each design runs a contended workload:
eight seeded clients, each on its own compute server, mixing range scans
of one to a dozen leaves with inserts (duplicates of loaded keys among
them) and deletes, on a three-level tree with head nodes on. The
fine-grained run has its garbage collector sweeping, compacting and
rebuilding head nodes under the scans. Coarse-grained and hybrid run under
range and under hash partitioning; under hash every scan is a scatter over
all four partitions and a merge.

What is hashed is every scan's returned list in the order the scans were
*issued* (not completed), and one full scan once the cluster is quiet. The
constants were recorded with the scan path as it was before it read pairs
from a per-image memo; any change to what a scan returns, or to the
simulated interleaving that decides it, changes them.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import Cluster, ClusterConfig, EpochGarbageCollector, FineGrainedIndex
from repro.experiments.common import DESIGNS
from repro.index.partitioning import HashPartitioner
from repro.workloads import generate_dataset

NUM_KEYS = 8_000
CLIENTS = 8
OPS_PER_CLIENT = 300
#: Scan widths in key units: within one leaf, two or three leaves, about a
#: dozen (the head-node prefetch's case).
WIDTHS = (64, 800, 4_000)

#: The quiet full scan comes out the same in all five cases (8 248 pairs
#: after 1 169 scans and the inserts and deletes between them).
FULL_SCAN = "51e1aa432981562fa57264962682eb19ab90e9ad6528dfe5597681eb74941301"

#: ``(sha256 of every scan in issue order, sha256 of the quiet full scan,
#: scans issued, pairs in the full scan)`` per case.
PINS = {
    "fine-grained": (
        "422d9dc503011e9dad87ba2eee97ea855e122763096cb4c255a04542ba7460a0",
        FULL_SCAN,
        1169,
        8_248,
    ),
    "coarse-grained/range": (
        "1d0035d5a568b893f3cff287f8e7332cb8260fc1682115145b281b8640c08878",
        FULL_SCAN,
        1169,
        8_248,
    ),
    "coarse-grained/hash": (
        "032896cf774217c5509cb67db223e87b6405a0e5f18f8834e7c86156733efa6b",
        FULL_SCAN,
        1169,
        8_248,
    ),
    "hybrid/range": (
        "a1e5322de704dda57902524d5c27f976a96b085e664c54369ba23d3c98ff78a2",
        FULL_SCAN,
        1169,
        8_248,
    ),
    "hybrid/hash": (
        "049c440ca4b08b5d9c2b405952e5233687a70138b9437cbe831d3e00971b4673",
        FULL_SCAN,
        1169,
        8_248,
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def scan_run(case: str):
    """Run *case*'s workload; returns what :data:`PINS` records."""
    design, _, partitioning = case.partition("/")
    cluster = Cluster(ClusterConfig(seed=11))
    dataset = generate_dataset(NUM_KEYS, gap=8)
    cls = DESIGNS[design]
    options = {}
    if cls is not FineGrainedIndex:
        options["key_space"] = dataset.key_space
        if partitioning == "hash":
            options["partitioner"] = HashPartitioner(cluster.num_memory_servers)
    index = cls.build(cluster, "scans", dataset.pairs(), **options)
    sweeper = None
    if cls is FineGrainedIndex:
        collector = EpochGarbageCollector(
            cluster.sim,
            index.tree_for(cluster.new_compute_server()),
            epoch_s=0.0001,
            rebuild_heads=True,
        )
        sweeper = collector.start()
    scans = []

    def client(cid, session):
        rng = random.Random(1_000 + cid)
        for i in range(OPS_PER_CLIENT):
            draw = rng.random()
            if draw < 0.5:
                low = rng.randrange(dataset.key_space)
                slot = len(scans)
                scans.append(None)
                scans[slot] = yield from session.range_scan(
                    low, low + rng.choice(WIDTHS)
                )
            elif draw < 0.65:
                # A duplicate of a loaded key: it lands after the original.
                key = dataset.key_at(rng.randrange(NUM_KEYS))
                yield from session.insert(key, 100_000 + cid * 1_000 + i)
            elif draw < 0.8:
                key = rng.randrange(dataset.key_space)
                yield from session.insert(key, 200_000 + cid * 1_000 + i)
            else:
                yield from session.delete(dataset.key_at(rng.randrange(NUM_KEYS)))

    procs = [
        cluster.spawn(client(cid, index.session(cluster.new_compute_server())))
        for cid in range(CLIENTS)
    ]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    if sweeper is not None:
        assert collector.sweeps > 0 and collector.entries_removed > 0
        collector.stopped = True
        cluster.sim.run_until_complete(sweeper)
    assert all(scan is not None for scan in scans)
    session = index.session(cluster.new_compute_server())
    full = cluster.execute(session.range_scan(0, dataset.key_space))
    return _digest(scans), _digest(full), len(scans), len(full)


@pytest.mark.parametrize("case", sorted(PINS))
def test_every_scan_returns_the_recorded_pairs(case):
    assert scan_run(case) == PINS[case]
