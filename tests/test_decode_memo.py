"""The decode memo is the cluster's: one ``raw_ptr -> master Node`` dict
under both accessors (``Cluster.decode_memo`` carries the argument).

What that has to mean, each as a test: every client thread and RPC worker
of a cluster gets the *same* master and sees a writer's next version;
every accessor hands every caller the master; a writer's unlock makes the
writer's own node the master of the version it wrote, and a failed lock
CAS changes nothing; two clusters in one process never see each other's
pages; after contention the memo still says what the bytes say; a crashed
host's wiped region never reaches it, by a read or by a write; and the one
bypass — ``verify_index`` empties it — is necessary for server-resident
pages too. And a prefetch group decodes its borrowed pages before it
sleeps, so no view of a region outlives the instant it was read at.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    EpochGarbageCollector,
    FaultPlan,
    FineGrainedIndex,
    NetworkConfig,
    verify_index,
)
from repro.btree.node import Node
from repro.btree.pointers import RemotePointer
from repro.experiments.common import DESIGNS, build_index
from repro.index.accessors import LocalAccessor, RemoteAccessor
from repro.index.caching import CachingRemoteAccessor
from repro.rdma.verbs import Verb
from repro.workloads import generate_dataset


def assert_memo_is_truth(cluster, accessor_for=None) -> int:
    """Every memoized page, re-read through an accessor, is field for field
    what the routed region's bytes decode to — whether the read was served
    the memoized master (counted, and returned) or refused it for its
    version and decoded afresh. *accessor_for* maps a logical server id to
    the accessor to read its pages with; by default one ``RemoteAccessor``."""
    remote = RemoteAccessor(cluster.compute_servers[0], cluster.config)
    hits = 0
    for raw_ptr, master in list(cluster.decode_memo.items()):
        pointer = RemotePointer.from_raw(raw_ptr)
        accessor = accessor_for(pointer.server_id) if accessor_for else remote
        served = cluster.execute(accessor.read_node(raw_ptr))
        hits += served is master
        truth = Node.from_bytes(cluster.page_image(pointer.server_id, pointer.offset))
        # A scanned master also carries its live pairs: they must be what
        # the bytes' live pairs are.
        if served.live is not None:
            assert served.live == truth.build_live(), f"live pairs of {raw_ptr:#x}"
        truth.live = served.live
        for field in Node.__slots__:
            assert getattr(served, field) == getattr(truth, field), (
                f"{field} of {raw_ptr:#x}"
            )
        assert cluster.decode_memo[raw_ptr] is served
    return hits


def test_every_server_of_a_cluster_holds_the_clusters_memo(cluster, compute):
    servers = cluster.memory_servers + cluster.compute_servers
    assert len(servers) == 5
    assert all(server.decode_memo is cluster.decode_memo for server in servers)
    assert Cluster(cluster.config).decode_memo is not cluster.decode_memo


def test_two_compute_servers_share_one_master_and_see_the_next_version(
    cluster, dataset
):
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session_a = index.session(cluster.new_compute_server())
    session_b = index.session(cluster.new_compute_server())
    acc_a, acc_b = session_a._tree.acc, session_b._tree.acc
    assert acc_a is not acc_b
    key = dataset.key_at(100)
    ptr, seen_by_a = cluster.execute(session_a._tree._find_leaf(key))
    # B has never read this page; A's decode is the one it gets.
    assert cluster.execute(acc_b.read_node(ptr)) is seen_by_a

    cluster.execute(session_a.insert(key + 1, 77))
    seen_by_b = cluster.execute(acc_b.read_node(ptr))
    assert seen_by_b is not seen_by_a
    assert seen_by_b.version == seen_by_a.version + 2
    assert key + 1 in seen_by_b.keys and key + 1 not in seen_by_a.keys
    assert cluster.execute(session_b.lookup(key + 1)) == [77]
    # ... and the new image is again one object for both.
    assert cluster.execute(acc_a.read_node(ptr)) is seen_by_b


def test_every_accessor_hands_every_caller_the_master(cluster, dataset):
    """Server-resident, one-sided and caching accessors alike: a read is the
    memo's master, whether or not the caller passes the ignored second
    argument, and a cache hit is that same object."""
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    tree = index.partition_tree(0)
    ptr = cluster.execute(tree.root.get())
    compute = cluster.new_compute_server()
    accessors = [
        tree.acc,
        RemoteAccessor(compute, cluster.config),
        CachingRemoteAccessor(index, compute, depth=2, capacity=64),
    ]
    assert isinstance(tree.acc, LocalAccessor)
    master = cluster.execute(tree.acc.read_node(ptr))
    assert master.is_inner and cluster.decode_memo[ptr] is master
    for accessor in accessors:
        for _lap in range(2):  # the caching accessor's second lap is a hit
            assert cluster.execute(accessor.read_node(ptr)) is master
            assert cluster.execute(accessor.read_node(ptr, True)) is master
    assert accessors[2].entries[ptr][2] is master
    assert cluster.decode_memo[ptr] is master


def _published(monkeypatch):
    """Record every ``(raw_ptr, node)`` an ``unlock_write`` is handed."""
    log = []
    for cls in (LocalAccessor, RemoteAccessor):
        real = cls.unlock_write

        def spy(self, raw_ptr, node, real=real):
            log.append((raw_ptr, node))
            return real(self, raw_ptr, node)

        monkeypatch.setattr(cls, "unlock_write", spy)
    return log


def assert_writers_are_masters(cluster, log) -> None:
    """Each page's last writer's node *is* its memo master, at the even
    version the routed region's word holds."""
    assert log
    for raw_ptr, node in dict(log).items():
        pointer = RemotePointer.from_raw(raw_ptr)
        word = int.from_bytes(
            cluster.page_image(pointer.server_id, pointer.offset)[:8], "little"
        )
        assert cluster.decode_memo.get(raw_ptr) is node, f"master of {raw_ptr:#x}"
        assert node.version == word and not word & 1


_WRITES = ("insert", "update", "delete", "separator", "gc")


@pytest.mark.parametrize("batched", (True, False), ids=("batched", "unbatched"))
@pytest.mark.parametrize(
    "design, write",
    [("fine-grained", write) for write in _WRITES]
    + [("coarse-grained", "separator"), ("hybrid", "separator")],
)
def test_a_writers_node_becomes_the_master_of_its_version(
    design, write, batched, monkeypatch
):
    """After an insert, update, delete, separator install (fine-grained
    one-sided, coarse-grained in the RPC worker, the hybrid's owner-side
    install) and a GC compaction, the memo entry of each written page is the
    node its writer handed to ``unlock_write`` — nobody decoded it."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=23,
            network=NetworkConfig(doorbell_batching=batched),
        )
    )
    dataset = generate_dataset(2_000, gap=8)
    index = build_index(cluster, design, dataset)
    session = index.session(cluster.new_compute_server())
    key = dataset.key_at(500)
    log = _published(monkeypatch)
    if write == "insert":
        cluster.execute(session.insert(key + 1, 7))
    elif write == "update":
        assert cluster.execute(session.update(key, 7))
    elif write == "delete":
        assert cluster.execute(session.delete(key))
    elif write == "separator":
        # Seven new keys after each of a dozen loaded ones: the leaf splits
        # and the separator goes into the level above.
        for ordinal in range(500, 512):
            for offset in range(1, 8):
                cluster.execute(session.insert(dataset.key_at(ordinal) + offset, 9))
        assert any(node.level == 1 for _ptr, node in log)
    else:
        for ordinal in range(500, 520):
            assert cluster.execute(session.delete(dataset.key_at(ordinal)))
        del log[:]
        collector = EpochGarbageCollector(
            cluster.sim,
            index.tree_for(cluster.new_compute_server()),
            rebuild_heads=True,
        )
        assert cluster.execute(collector.sweep())["removed"] == 20
    assert_writers_are_masters(cluster, log)

    def local(server_id):
        return index.partition_tree(server_id).acc

    assert assert_memo_is_truth(cluster, None if design == "fine-grained" else local)
    assert cluster.execute(session.lookup(dataset.key_at(499))) == [499]


@pytest.mark.parametrize("design", ("fine-grained", "coarse-grained"))
def test_a_failed_lock_cas_leaves_the_master_untouched(design, cluster, dataset):
    index = build_index(cluster, design, dataset)
    key = dataset.key_at(300)
    if design == "fine-grained":
        tree = index.tree_for(cluster.new_compute_server())
    else:
        tree = index.partition_tree(index.partitioner.server_for_key(key))
    ptr, master = cluster.execute(tree._find_leaf(key))
    before = (list(master.keys), list(master.values), master.version, master.high_key)
    assert not cluster.execute(tree.acc.try_lock(ptr, master.version + 2))
    assert cluster.decode_memo[ptr] is master
    assert (master.keys, master.values, master.version, master.high_key) == before
    assert cluster.execute(tree._find_leaf(key)) == (ptr, master)


def test_two_clusters_in_one_process_read_their_own_pages():
    """Equal configurations allocate equal pointers; the bytes behind them
    differ. A module-global memo would serve one cluster the other's."""
    worlds = []
    for gap in (8, 4):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=3))
        dataset = generate_dataset(1_000, gap=gap)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        session = index.session(cluster.new_compute_server())
        worlds.append((cluster, dataset, session))
    leaves = []
    for cluster, dataset, session in worlds:
        for ordinal in range(0, dataset.num_keys, 37):
            assert cluster.execute(session.lookup(dataset.key_at(ordinal))) == [ordinal]
        leaves.append(
            cluster.execute(session._tree._find_leaf(dataset.key_at(999)))
        )
    (ptr_a, leaf_a), (ptr_b, leaf_b) = leaves
    assert ptr_a == ptr_b
    assert leaf_a is not leaf_b and leaf_a.keys != leaf_b.keys
    for cluster, _dataset, _session in worlds:
        assert assert_memo_is_truth(cluster)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_memo_is_truth_after_contention(design):
    """Six clients on six compute servers fight over forty keys with
    lookups, inserts and deletes; afterwards a memo hit is still never
    stale data — an outdated entry is refused by its version."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=19))
    dataset = generate_dataset(800, gap=8)
    index = build_index(cluster, design, dataset)
    sessions = [index.session(cluster.new_compute_server()) for _ in range(6)]

    def client(cid, session):
        for i in range(60):
            key = dataset.key_at(380 + (cid * 7 + i * 3) % 40)
            assert (yield from session.lookup(key))
            yield from session.insert(key + 1 + cid % 3, cid * 1_000 + i)
            if i % 3 == 0:
                yield from session.delete(key + 1 + cid % 3)

    procs = [cluster.spawn(client(cid, s)) for cid, s in enumerate(sessions)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    # Server-resident designs are checked through the accessor their RPC
    # workers use (it reaches every page of its server, leaves included).
    def local(server_id):
        return index.partition_tree(server_id).acc

    assert len(cluster.decode_memo) > 3
    assert assert_memo_is_truth(cluster, None if design == "fine-grained" else local)
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    assert report.entries > 800


def test_a_wiped_image_never_enters_the_memo():
    """A destructive crash wipes the host's regions but not its RPC
    workers. One parked in ``read_node``'s CPU slice on a page nobody has
    decoded yet then reads zeros — version word 0, the even word of every
    bulk-loaded page. Memoized, that empty node would be a *hit* for the
    promoted copy's true bytes, on every accessor of the cluster."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=3,
            memory_servers_per_machine=1,
            replication_factor=2,
            seed=31,
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    injector = cluster.attach_faults(FaultPlan())
    remote = RemoteAccessor(cluster.new_compute_server(), cluster.config)
    victim = 1
    tree = index.partition_tree(victim)
    key = next(
        key for key, _value in dataset.pairs()
        if index.partitioner.server_for_key(key) == victim
    )
    _ptr, parent = cluster.execute(tree._descend_to_level(key, 1))
    leaf_ptr = parent.find_child(key)
    assert leaf_ptr not in cluster.decode_memo

    parked = cluster.spawn(tree.acc.read_node(leaf_ptr))
    cluster.run(until=cluster.now + tree.acc._node_cpu / 2)
    assert not parked.triggered
    injector.crash_memory_server(victim)
    wiped = cluster.sim.run_until_complete(parked)
    assert (wiped.version, wiped.count) == (0, 0)  # what the dying worker saw
    assert leaf_ptr not in cluster.decode_memo

    cluster.replication.promote(victim)
    promoted = index.partition_tree(victim)
    assert promoted.acc.server is not tree.acc.server
    leaf = cluster.execute(promoted.acc.read_node(leaf_ptr))
    assert leaf.version == 0 and key in leaf.keys
    assert cluster.execute(remote.read_node(leaf_ptr)) is leaf
    assert assert_memo_is_truth(
        cluster, lambda server_id: index.partition_tree(server_id).acc
    )
    # Nor is a down host's read *served* from the memo: its handler sees
    # what it saw before the memo was the cluster's.
    again = cluster.execute(tree.acc.read_node(leaf_ptr))
    assert again is not leaf and again.count == 0


def test_a_write_into_a_wiped_region_never_enters_the_memo():
    """The writer's side of the test above. An RPC worker parked in
    ``unlock_write``'s CPU slice when its host crashes writes its image into
    the wiped region and gets its own word back from the FAA. Published,
    that node would be the master of the next version — which the promoted
    copy, still locked at the old image, reaches by a lock steal."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=3,
            memory_servers_per_machine=1,
            replication_factor=2,
            seed=31,
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = CoarseGrainedIndex.build(
        cluster, "idx", *dataset.columns(), key_space=dataset.key_space
    )
    injector = cluster.attach_faults(FaultPlan())
    remote = RemoteAccessor(cluster.new_compute_server(), cluster.config)
    victim = 1
    tree = index.partition_tree(victim)
    key = next(
        key for key, _value in dataset.pairs()
        if index.partitioner.server_for_key(key) == victim
    )
    leaf_ptr, old = cluster.execute(tree._find_leaf(key))
    assert cluster.execute(tree.acc.try_lock(leaf_ptr, old.version))
    node = old.clone()
    node.insert_entry(key + 1, 77)

    parked = cluster.spawn(tree.acc.unlock_write(leaf_ptr, node))
    cluster.run(until=cluster.now + tree.acc._node_cpu / 2)
    assert not parked.triggered
    injector.crash_memory_server(victim)
    cluster.sim.run_until_complete(parked)

    cluster.replication.promote(victim)
    assert cluster.execute(remote.try_steal_lock(leaf_ptr, old.version | 1))
    leaf = cluster.execute(remote.read_node(leaf_ptr))
    # The promoted copy's image under the stolen word, not the dead write.
    assert leaf.version == old.version + 2
    assert key + 1 not in leaf.keys and leaf.keys == old.keys
    assert leaf is not node and node.version == old.version | 1
    assert assert_memo_is_truth(
        cluster, lambda server_id: index.partition_tree(server_id).acc
    )


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_verifier_reports_a_master_that_is_not_its_pages_bytes(design):
    """The verifier checks the memo before it empties it: a master at its
    page's current version must be what the bytes decode to, live pairs
    included. A master altered in place — what a writer publishing a node
    its page does not hold would leave — is a violation; one whose
    version is behind the word is not, its next read refuses it."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=17))
    dataset = generate_dataset(1_500, gap=4)
    index = build_index(cluster, design, dataset)
    session = index.session(cluster.new_compute_server())
    assert len(cluster.execute(session.range_scan(0, dataset.key_at(100)))) == 100
    report = verify_index(cluster, index)
    assert report.ok, report.violations

    assert len(cluster.execute(session.range_scan(0, dataset.key_at(100)))) == 100
    leaves = [
        (raw_ptr, master) for raw_ptr, master in cluster.decode_memo.items()
        if master.is_leaf and master.live is not None
    ]
    assert len(leaves) >= 2
    (keys_ptr, keyed), (live_ptr, lived) = leaves[:2]
    keyed.keys[0] += 1
    live_keys, live_pairs = lived.live
    lived.live = (live_keys, live_pairs[1:] + live_pairs[:1])
    report = verify_index(cluster, index)
    assert sorted(v for v in report.violations if v.startswith("stale memo")) == sorted(
        f"stale memo master at {raw_ptr:#x} (version {master.version})"
        for raw_ptr, master in ((keys_ptr, keyed), (live_ptr, lived))
    )

    cluster.execute(session.lookup(dataset.key_at(100)))
    master = next(m for m in cluster.decode_memo.values() if m.is_leaf)
    master.keys.reverse()
    master.version += 2
    assert verify_index(cluster, index).ok


@pytest.mark.parametrize("design", ("coarse-grained", "hybrid"))
def test_verifier_sees_a_server_resident_page_rewritten_under_its_version(design):
    """The carve-out for the server-resident half: an inner page an RPC
    worker has memoized is corrupted in place, version word untouched. The
    worker keeps being served its memoized decode; the verifier, which
    empties the memo to check bytes, reports the damage."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=17))
    dataset = generate_dataset(1_500, gap=4)
    index = build_index(cluster, design, dataset)
    session = index.session(cluster.new_compute_server())
    assert cluster.execute(session.lookup(dataset.key_at(10))) == [10]

    tree = index.partition_tree(0)
    root_ptr = cluster.execute(tree.root.get())
    master = cluster.decode_memo[root_ptr]  # the RPC worker's decode
    assert master.is_inner and master.count >= 2
    pointer = RemotePointer.from_raw(root_ptr)
    page_size = cluster.config.tree.page_size
    region = cluster.memory_server(pointer.server_id).region
    node = Node.from_bytes(region.read(pointer.offset, page_size))
    node.keys[0], node.keys[1] = node.keys[1], node.keys[0]
    region.write(pointer.offset, node.to_bytes(page_size))

    assert cluster.execute(tree.acc.read_node(root_ptr)) is master
    report = verify_index(cluster, index)
    assert not report.ok
    assert any("sorted" in violation for violation in report.violations)


def test_a_prefetch_group_holds_no_view_across_its_search_cost(monkeypatch):
    """A prefetch group's READs borrow views of the live region, so it
    decodes its pages at the chain's completion and drops every view before
    its search-cost sleep. Here each chained READ's completion spawns a
    process that grows that region during the sleep: with a view held
    across it, the growth raises ``BufferError``."""
    cluster = Cluster(ClusterConfig(seed=5))
    dataset = generate_dataset(2_000, gap=8)
    index = build_index(cluster, "fine-grained", dataset)
    compute = cluster.new_compute_server()
    session = index.session(compute)
    grown = []

    def grow(region):
        region.write(len(region), bytes(8))  # past the end: one more chunk
        grown.append(len(region))
        yield 0.0

    def growing(qp):
        post = qp._post

        def wrapped(wqes, n, chained, whole):
            result = yield from post(wqes, n, chained, whole)
            if chained and wqes[0][0] is Verb.READ:
                # Queued at this instant, so it runs while the group that
                # posted the chain sleeps its search cost.
                cluster.spawn(grow(qp.region))
            return result

        return wrapped

    for server_id in range(cluster.num_memory_servers):
        qp = compute.qp(server_id)
        monkeypatch.setattr(qp, "_post", growing(qp))
    pairs = cluster.execute(session.range_scan(dataset.key_at(0), dataset.key_at(1_500)))
    assert pairs == [(dataset.key_at(i), i) for i in range(1_500)]
    assert grown
