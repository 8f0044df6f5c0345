"""Seeded contended histories, pinned as hashes: one table of
:class:`~repro.workloads.history.Scenario` rows.

The engine goldens hash latencies and operation counts, not results or
page bytes, so a write that stored the wrong image (an entry lost in a
split, a tombstone on the wrong duplicate, a head pointer dropped by a
compaction) or a scan that built the wrong pairs (a tombstone kept, a
duplicate reordered, a leaf skipped or read twice) passes all of them.
Every row runs eight seeded clients, each on its own compute server, on a
three-level tree of 8 000 keys. *Write* rows mix lookups, inserts
(duplicates of loaded keys among them), updates and deletes, half inside
one hot window of a few leaves so that lock attempts fail and splits race.
They cover every write path: fine-grained with doorbell batching on and
off, with a depth-2 client cache and with its garbage collector compacting
leaves and rebuilding head nodes; coarse-grained and hybrid under range
and hash partitioning; and the hybrid at replication factor 2 under a
no-op fault plan. *Scan* rows mix scans of one to a dozen leaves with
inserts and deletes: fine-grained under its collector, and coarse-grained
and hybrid under range and hash partitioning (under hash a scan is a
scatter over all four partitions and a merge). The *run* row grows runs of
one key until each fills a small hybrid leaf alone, then inserts just above
them beside scans, so full leaves of one key split at the made-up separator
``run_key + 1``, which the hash partitioner mostly sends elsewhere.

Hashed are every result in *issue* order (a scan row's scans alone), one
full scan of the quiet cluster and, for a write row, every memory server's
region bytes. Every row also checks its history: it must be linearizable
(``check_history``) from the loaded pairs, with the quiet scan as a read
of every key after the last operation, and the sim times must be well
formed. So does the typed-error row, whose failed lookups may have read
anything, and a kept ``WorkloadRunner.run`` history under message loss.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import (
    CacheConfig,
    Cluster,
    ClusterConfig,
    FaultPlan,
    FineGrainedIndex,
    NetworkConfig,
    RetriesExhaustedError,
    TreeConfig,
)
from repro.btree.algorithm import BLinkTree
from repro.errors import ConfigurationError
from repro.workloads import (
    OP_TYPES,
    Scenario,
    WorkloadRunner,
    WorkloadSpec,
    check_history,
    generate_dataset,
    run_scenario,
)

NUM_KEYS = 8_000
#: Ordinals of the write rows' hot window (~7 leaves).
HOT = range(3_000, 3_400)
#: Scan widths in key units: within one leaf, two or three leaves, about a
#: dozen (the head-node prefetch's case).
WIDTHS = (64, 800, 4_000)


def writes(client, dataset):
    """A write row's client: 250 operations."""
    rng = random.Random(2_000 + client)
    for i in range(250):
        ordinal = rng.choice(HOT) if rng.random() < 0.5 else rng.randrange(NUM_KEYS)
        key = dataset.key_at(ordinal)
        draw = rng.random()
        tag = client * 1_000 + i
        if draw < 0.25:
            yield "lookup", (key,)
        elif draw < 0.4:
            # A duplicate of a loaded key: it lands after the original.
            yield "insert", (key, 100_000 + tag)
        elif draw < 0.6:
            yield "insert", (key + 1 + rng.randrange(7), 200_000 + tag)
        elif draw < 0.8:
            yield "update", (key, 300_000 + tag)
        else:
            yield "delete", (key,)


def scans(client, dataset):
    """A scan row's client: 300 operations, about half of them scans."""
    rng = random.Random(1_000 + client)
    for i in range(300):
        draw = rng.random()
        tag = client * 1_000 + i
        if draw < 0.5:
            low = rng.randrange(dataset.key_space)
            yield "range_scan", (low, low + rng.choice(WIDTHS))
        elif draw < 0.65:
            yield "insert", (dataset.key_at(rng.randrange(NUM_KEYS)), 100_000 + tag)
        elif draw < 0.8:
            yield "insert", (rng.randrange(dataset.key_space), 200_000 + tag)
        else:
            yield "delete", (dataset.key_at(rng.randrange(NUM_KEYS)),)


def runs(client, dataset):
    """The run row's client: three duplicates of each of its hot keys, then
    one insert just above each, with scans and lookups beside them. Four
    clients share a hot key, so its run reaches 13 entries, a 256-byte
    page, and the insert above splits that full leaf of one key."""
    rng = random.Random(3_000 + client)
    hot = [dataset.key_at(ordinal) for ordinal in range(10, dataset.num_keys, 40)]
    mine = hot[client % 2 :: 2]
    tag = iter(range(client * 1_000, (client + 1) * 1_000))
    inserts = [("insert", (key, 100_000 + next(tag))) for key in mine * 3]
    rng.shuffle(inserts)
    inserts += [("insert", (key + 1 + rng.randrange(7), 200_000 + next(tag))) for key in mine]
    for insert in inserts:
        yield insert
        if rng.random() < 0.5:
            low = rng.choice(hot) - rng.randrange(40)
            yield "range_scan", (low, low + rng.choice((16, 64, 400)))
        if rng.random() < 0.3:
            yield "lookup", (dataset.key_at(rng.randrange(dataset.num_keys)),)


def lookups(client, dataset):
    """The typed-error row's client: 40 lookups."""
    rng = random.Random(client)
    for _ in range(40):
        yield "lookup", (dataset.key_at(rng.randrange(NUM_KEYS)),)


def row(design, ops, partitioning="range", extras=(), faults=None, **config):
    return Scenario(design, ops, partitioning, {"seed": 11, **config}, faults, extras)


#: ``(pin, case) -> (scenario, sha256 of the results in issue order,
#: sha256 of the memory servers' regions)``. The fine-grained write rows
#: were recorded with a height probe on a compute server of its own, which
#: shifts every client's server id; hence their ``"probe"``.
TABLE = {
    ("write", "fine-grained/batched"): (
        row("fine-grained", writes, extras=("probe",)),
        "cc5afe2072e423452daf4758b796cbb0155d59ad80f0fdaa4f227d68d0aba03b",
        "39966c345a8d41c5b1cb16e2f64decd0a2a38ebf8ad3875c73d87b9b6852e5ab"),
    ("write", "fine-grained/unbatched"): (
        row("fine-grained", writes, extras=("probe",),
            network=NetworkConfig(doorbell_batching=False)),
        "4535a0bfa5c334b8e909aef6edd9ded04149c5620a005d4721fc6845c1c0717c",
        "dded0f9bc987046fda7a930f399522c9c2cf04fc59f8700f2838dfcdfd3de27a"),
    ("write", "fine-grained/cached"): (
        row("fine-grained", writes, extras=("probe",), cache=CacheConfig(depth=2)),
        "8f06fadcb940224078b64655041f4a45c868a4f98a5c2743e5dcb180d266e36c",
        "c3623cd784a955bcba0a1c5774935c112f7e5b1f1e5c760a7dcae7a37daaeed5"),
    ("write", "fine-grained/gc"): (
        row("fine-grained", writes, extras=("probe", "gc")),
        "dca4db3ad2f8677fe532096e3322209c5c7dc419ef8de0bd74ab078d8d2bee43",
        "89ced64ba8682ba57ae632719474a3eebf4d6855417b18f142f13bcd778f3575"),
    ("write", "coarse-grained/range"): (
        row("coarse-grained", writes),
        "6cff31cd9d9439cefdb7c1ef1bd1c817659fb7d4d85b7a83009eff4e10a619a7",
        "6ef8dfe1cb13ad703b0821826470a83d2d5953f0ad8fe5972f6c8cb0579976de"),
    ("write", "coarse-grained/hash"): (
        row("coarse-grained", writes, "hash"),
        "db3ae9907398db983c6df460d812b56eeeaaac16f06991bed40ed9a1cf655eb7",
        "f7c5eedf1eb2a05c7ba8e2bdf26d39d0b5106e45620b6175c30a0446b600be96"),
    ("write", "hybrid/range"): (
        row("hybrid", writes),
        "6e769388e57be2bba3ed483d49703576ad32ecfac14be25db9307c41783c0d6f",
        "e4386f4dc5dc315b370a2045b305b9204ebbfcd96ba36fb6247c1a8dc0fce1f3"),
    ("write", "hybrid/hash"): (
        row("hybrid", writes, "hash"),
        "26d7ddb60a10b886059b172e3550a901549787b90eb7aeaf1e22bbb3ce22a8f9",
        "99d8269e742eb2131d78c42753b4e393446345788abeb16d0a21c58dbb89e29f"),
    ("write", "hybrid/replicated"): (
        row("hybrid", writes, faults=FaultPlan(), replication_factor=2),
        "73ee572bc4f173112e366615ac01275cffd20525d9edf7587ebb869153bb6cbb",
        "900722922c4c12dffaabb1c6035cb95f15dc10c1cfee0a37b72179f0097f5bdb"),
    ("scan", "fine-grained"): (
        row("fine-grained", scans, extras=("gc",)),
        "c1af4d19ae42d69cc5c0d2bcef8c4a20bf70cd150bbb84eb653ab2dd75cad759", None),
    ("scan", "coarse-grained/range"): (
        row("coarse-grained", scans),
        "1d0035d5a568b893f3cff287f8e7332cb8260fc1682115145b281b8640c08878", None),
    ("scan", "coarse-grained/hash"): (
        row("coarse-grained", scans, "hash"),
        "032896cf774217c5509cb67db223e87b6405a0e5f18f8834e7c86156733efa6b", None),
    ("scan", "hybrid/range"): (
        row("hybrid", scans),
        "904a78ffc54fb43e756f14e157d38b51f1d7c9f93c263457120e3f3f83db752e", None),
    ("scan", "hybrid/hash"): (
        row("hybrid", scans, "hash"),
        "eb29d1f571cd59bf9d4c8671d514ca4a063e6285a4e8c7cac907a0fbf90c28d7", None),
    ("run", "hybrid/hash"): (
        Scenario("hybrid", runs, "hash", {"seed": 11, "tree": TreeConfig(page_size=256)},
                 num_keys=2_000),
        "dfe3f1fe9dba0a48d980ee282278d17df4f40156ad940a3c27a13eaa6fdcb61f",
        "115ee6a03b0e32fc8a69901dc5cf78140b661cfef71949e590c17131f09c771d"),
}

#: The quiet full scan of every write row (8 270 pairs after 2 000
#: operations) and of every scan row (8 248 pairs after 1 169 scans and the
#: inserts and deletes between them).
WRITE_FULL_SCAN = "38f18eae4c139063186d9fa0859311c062a97e29cc00458c5d70182172fc68ec"
SCAN_FULL_SCAN = "51e1aa432981562fa57264962682eb19ab90e9ad6528dfe5597681eb74941301"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _check_order(ops):
    """Invoke times never decrease, and each client's ops are sequential."""
    assert all(a.invoked_at <= b.invoked_at for a, b in zip(ops, ops[1:]))
    responded = {}
    for op in ops:
        assert op.invoked_at <= op.responded_at
        assert op.invoked_at >= responded.get(op.client, op.invoked_at)
        responded[op.client] = op.responded_at


def _checked(scenario):
    """Run *scenario* and check what every history must satisfy."""
    history = run_scenario(scenario)
    dataset = generate_dataset(scenario.num_keys)
    assert check_history(history.ops, dataset.pairs(), history.full_scan) == []
    _check_order(history.ops)
    if "probe" in scenario.extras:
        assert history.observed["height"] == 3
    if "gc" in scenario.extras:
        assert history.observed["sweeps"] > 0 and history.observed["entries_removed"] > 0
    return history


@pytest.mark.parametrize("case", [case for pin, case in TABLE if pin == "write"])
def test_every_write_leaves_the_recorded_bytes(case):
    scenario, results, regions = TABLE["write", case]
    history = _checked(scenario)
    assert (
        _digest([(op.result,) for op in history.ops]),
        _digest(history.full_scan),
        _digest(history.regions),
        len(history.ops),
        len(history.full_scan),
    ) == (results, WRITE_FULL_SCAN, regions, 2_000, 8_270)


@pytest.mark.parametrize("case", [case for pin, case in TABLE if pin == "scan"])
def test_every_scan_returns_the_recorded_pairs(case):
    scenario, results, _ = TABLE["scan", case]
    history = _checked(scenario)
    scanned = [op.result for op in history.ops if op.method == "range_scan"]
    assert (
        _digest(scanned), _digest(history.full_scan), len(scanned), len(history.full_scan)
    ) == (results, SCAN_FULL_SCAN, 1_169, 8_248)


def test_a_run_of_one_key_splits_at_its_made_up_separator(monkeypatch):
    """Each split of a full leaf of one key (the sibling takes
    ``run_key + 1`` onwards) sends that separator to the partition the leaf
    was reached through, whatever the key hashes to; a separator installed
    in another partition's inner level reroutes that partition's scans and
    lookups, and the history stops being linearizable."""
    run_splits = []
    split = BLinkTree._split_for_insert

    def counted(node, key):
        if not node.level and node.keys[0] == node.keys[-1] != key:
            run_splits.append(key)
        return split(node, key)

    monkeypatch.setattr(BLinkTree, "_split_for_insert", staticmethod(counted))
    scenario, results, regions = TABLE["run", "hybrid/hash"]
    history = _checked(scenario)
    assert (
        _digest([(op.result,) for op in history.ops]),
        _digest(history.regions),
        len(history.ops),
        len(history.full_scan),
        len(run_splits),
    ) == (results, regions, 1_441, 2_800, 31)


def test_a_typed_error_ends_the_operation_not_the_client():
    history = _checked(Scenario(
        "coarse-grained", lookups, config={"seed": 3},
        faults=FaultPlan(seed=5, drop_probability=0.2), clients=2,
    ))
    failed = [op for op in history.ops if isinstance(op.result, RetriesExhaustedError)]
    assert failed and all(op.responded_at is not None for op in failed)
    assert len(history.ops) == 80 and len(history.full_scan) == NUM_KEYS


@pytest.mark.parametrize("design, partitioning, extras", [
    ("fine-grained", "hash", ()),
    ("fine-grained", "range", ("gcc",)),
    ("coarse-grained", "range", ("gc",)),
    ("hybrid", "range", ("probe",)),
])
def test_a_scenario_the_design_cannot_run_is_refused(monkeypatch, design, partitioning, extras):
    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built")

    monkeypatch.setattr("repro.workloads.history.Cluster", no_cluster)
    with pytest.raises(ConfigurationError):
        run_scenario(Scenario(design, lookups, partitioning, extras=extras))


def test_a_kept_run_history_agrees_with_its_fold():
    """The runner's kept ``Op``s are the history its window was folded from,
    and they are linearizable, the errored ones taking effect or not."""
    dataset = generate_dataset(2_000)
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=3))
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    cluster.attach_faults(FaultPlan(seed=4, drop_probability=0.2))
    spec = WorkloadSpec(name="mix", point_fraction=0.5, insert_fraction=0.3, delete_fraction=0.2)
    measure_from = cluster.now + 0.0005
    result = WorkloadRunner(cluster, dataset).run(
        index, spec, num_clients=6, warmup_s=0.0005, measure_s=0.002, keep_records=True
    )
    ops = result.raw_records
    _check_order(ops)
    assert check_history(ops, dataset.pairs()) == []
    assert {op.method for op in ops} <= set(OP_TYPES)
    window = [op for op in ops if measure_from <= op.responded_at <= measure_from + 0.002]
    errored = sum(isinstance(op.result, Exception) for op in window)
    assert errored == sum(result.errors.values()) > 0
    assert len(window) - errored == sum(result.op_counts.values())
    assert {"insert", "delete"} <= {op.method for op in window}
