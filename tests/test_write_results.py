"""What writes leave behind, pinned as hashes.

The engine goldens hash latencies and operation counts, not page bytes,
so a write path that put the right number of verbs on the wire with the
wrong image in them — an entry lost in a split, a tombstone on the wrong
duplicate, a head pointer dropped by a compaction — would pass every one
of them. Here each case runs a contended workload: eight seeded clients,
each on its own compute server, mixing lookups, inserts (duplicates of
loaded keys among them), updates and deletes on a three-level tree, half
of them inside one hot window of a few leaves so that lock attempts fail
and splits race.

The cases cover every write path the designs have: fine-grained with
doorbell batching on and off (one WRITE+FAA chain, or a WRITE then an
FAA), coarse-grained and hybrid under range and hash partitioning (the
server-resident accessor, and the hybrid's separator install by RPC),
fine-grained with a depth-2 client cache (the caching accessor's lock
revalidation), the hybrid at replication factor 2 under a no-op fault plan
(mirrors, leases, copied reads), and fine-grained with its garbage
collector compacting leaves and rebuilding head nodes under the clients.

What is hashed is every operation's return value in the order the
operations were *issued* (not completed), one full scan once the cluster
is quiet, and every memory server's region bytes. Any change to what a
write stores, or to the simulated interleaving that decides it, changes
them.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import (
    CacheConfig,
    Cluster,
    ClusterConfig,
    EpochGarbageCollector,
    FaultPlan,
    FineGrainedIndex,
    NetworkConfig,
)
from repro.experiments.common import DESIGNS
from repro.index.partitioning import HashPartitioner
from repro.workloads import generate_dataset

NUM_KEYS = 8_000
CLIENTS = 8
OPS_PER_CLIENT = 250
#: Ordinals of the hot window half the operations fall into (~7 leaves).
HOT = range(3_000, 3_400)

#: ``case -> (design, partitioning, ClusterConfig overrides, extras)``.
CASES = {
    "fine-grained/batched": ("fine-grained", "", {}, ()),
    "fine-grained/unbatched": (
        "fine-grained",
        "",
        {"network": NetworkConfig(doorbell_batching=False)},
        (),
    ),
    "fine-grained/cached": (
        "fine-grained", "", {"cache": CacheConfig(depth=2)}, ()
    ),
    "fine-grained/gc": ("fine-grained", "", {}, ("gc",)),
    "coarse-grained/range": ("coarse-grained", "range", {}, ()),
    "coarse-grained/hash": ("coarse-grained", "hash", {}, ()),
    "hybrid/range": ("hybrid", "range", {}, ()),
    "hybrid/hash": ("hybrid", "hash", {}, ()),
    "hybrid/replicated": (
        "hybrid", "range", {"replication_factor": 2}, ("faults",)
    ),
}

#: The quiet full scan comes out the same in all nine cases (8 270 pairs
#: after 2 000 operations).
FULL_SCAN = "38f18eae4c139063186d9fa0859311c062a97e29cc00458c5d70182172fc68ec"

#: ``(sha256 of every result in issue order, sha256 of the quiet full
#: scan, sha256 of the memory servers' regions, operations issued, pairs in
#: the full scan)`` per case.
PINS = {
    "fine-grained/batched": (
        "cc5afe2072e423452daf4758b796cbb0155d59ad80f0fdaa4f227d68d0aba03b",
        FULL_SCAN,
        "39966c345a8d41c5b1cb16e2f64decd0a2a38ebf8ad3875c73d87b9b6852e5ab",
        2_000,
        8_270,
    ),
    "fine-grained/unbatched": (
        "4535a0bfa5c334b8e909aef6edd9ded04149c5620a005d4721fc6845c1c0717c",
        FULL_SCAN,
        "dded0f9bc987046fda7a930f399522c9c2cf04fc59f8700f2838dfcdfd3de27a",
        2_000,
        8_270,
    ),
    "fine-grained/cached": (
        "8f06fadcb940224078b64655041f4a45c868a4f98a5c2743e5dcb180d266e36c",
        FULL_SCAN,
        "c3623cd784a955bcba0a1c5774935c112f7e5b1f1e5c760a7dcae7a37daaeed5",
        2_000,
        8_270,
    ),
    "fine-grained/gc": (
        "dca4db3ad2f8677fe532096e3322209c5c7dc419ef8de0bd74ab078d8d2bee43",
        FULL_SCAN,
        "89ced64ba8682ba57ae632719474a3eebf4d6855417b18f142f13bcd778f3575",
        2_000,
        8_270,
    ),
    "coarse-grained/range": (
        "6cff31cd9d9439cefdb7c1ef1bd1c817659fb7d4d85b7a83009eff4e10a619a7",
        FULL_SCAN,
        "6ef8dfe1cb13ad703b0821826470a83d2d5953f0ad8fe5972f6c8cb0579976de",
        2_000,
        8_270,
    ),
    "coarse-grained/hash": (
        "db3ae9907398db983c6df460d812b56eeeaaac16f06991bed40ed9a1cf655eb7",
        FULL_SCAN,
        "f7c5eedf1eb2a05c7ba8e2bdf26d39d0b5106e45620b6175c30a0446b600be96",
        2_000,
        8_270,
    ),
    "hybrid/range": (
        "6e769388e57be2bba3ed483d49703576ad32ecfac14be25db9307c41783c0d6f",
        FULL_SCAN,
        "e4386f4dc5dc315b370a2045b305b9204ebbfcd96ba36fb6247c1a8dc0fce1f3",
        2_000,
        8_270,
    ),
    "hybrid/hash": (
        "26d7ddb60a10b886059b172e3550a901549787b90eb7aeaf1e22bbb3ce22a8f9",
        FULL_SCAN,
        "99d8269e742eb2131d78c42753b4e393446345788abeb16d0a21c58dbb89e29f",
        2_000,
        8_270,
    ),
    "hybrid/replicated": (
        "73ee572bc4f173112e366615ac01275cffd20525d9edf7587ebb869153bb6cbb",
        FULL_SCAN,
        "900722922c4c12dffaabb1c6035cb95f15dc10c1cfee0a37b72179f0097f5bdb",
        2_000,
        8_270,
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def write_run(case: str):
    """Run *case*'s workload; returns what :data:`PINS` records."""
    design, partitioning, overrides, extras = CASES[case]
    cluster = Cluster(ClusterConfig(seed=11, **overrides))
    dataset = generate_dataset(NUM_KEYS, gap=8)
    cls = DESIGNS[design]
    options = {}
    if cls is not FineGrainedIndex:
        options["key_space"] = dataset.key_space
        if partitioning == "hash":
            options["partitioner"] = HashPartitioner(cluster.num_memory_servers)
    index = cls.build(cluster, "writes", dataset.pairs(), **options)
    if cls is FineGrainedIndex:
        tree = index.tree_for(cluster.new_compute_server())
        assert cluster.execute(tree.height()) == 3
    if "faults" in extras:
        cluster.attach_faults(FaultPlan())
    sweeper = None
    if "gc" in extras:
        collector = EpochGarbageCollector(
            cluster.sim,
            index.tree_for(cluster.new_compute_server()),
            epoch_s=0.0001,
            rebuild_heads=True,
        )
        sweeper = collector.start()
    results = []

    def client(cid, session):
        rng = random.Random(2_000 + cid)
        for i in range(OPS_PER_CLIENT):
            if rng.random() < 0.5:
                ordinal = rng.choice(HOT)
            else:
                ordinal = rng.randrange(NUM_KEYS)
            key = dataset.key_at(ordinal)
            draw = rng.random()
            slot = len(results)
            results.append(None)
            if draw < 0.25:
                result = yield from session.lookup(key)
            elif draw < 0.4:
                # A duplicate of a loaded key: it lands after the original.
                result = yield from session.insert(key, 100_000 + cid * 1_000 + i)
            elif draw < 0.6:
                result = yield from session.insert(
                    key + 1 + rng.randrange(7), 200_000 + cid * 1_000 + i
                )
            elif draw < 0.8:
                result = yield from session.update(key, 300_000 + cid * 1_000 + i)
            else:
                result = yield from session.delete(key)
            results[slot] = (result,)

    procs = [
        cluster.spawn(client(cid, index.session(cluster.new_compute_server())))
        for cid in range(CLIENTS)
    ]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    if sweeper is not None:
        assert collector.sweeps > 0 and collector.entries_removed > 0
        collector.stopped = True
        cluster.sim.run_until_complete(sweeper)
    assert all(result is not None for result in results)
    session = index.session(cluster.new_compute_server())
    full = cluster.execute(session.range_scan(0, dataset.key_space))
    regions = [
        hashlib.sha256(server.region.read(0, len(server.region))).hexdigest()
        for server in cluster.memory_servers
    ]
    return _digest(results), _digest(full), _digest(regions), len(results), len(full)


@pytest.mark.parametrize("case", sorted(PINS))
def test_every_write_leaves_the_recorded_bytes(case):
    assert write_run(case) == PINS[case]
