"""The decode memo is the cluster's: one ``raw_ptr -> master Node`` dict
under both accessors (``Cluster.decode_memo`` carries the argument).

What that has to mean, each as a test: every client thread and RPC worker
of a cluster gets the *same* master and sees a writer's next version;
mutating callers get clones on the server-resident path as on the
one-sided one; two clusters in one process never see each other's pages;
after contention the memo still says what the bytes say; a crashed host's
wiped region never reaches it; and the one bypass — ``verify_index``
empties it — is necessary for server-resident pages too.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FaultPlan,
    FineGrainedIndex,
    verify_index,
)
from repro.btree.node import Node
from repro.btree.pointers import RemotePointer
from repro.experiments.common import DESIGNS, build_index
from repro.index.accessors import LocalAccessor, RemoteAccessor
from repro.workloads import generate_dataset


def _region(cluster, server_id):
    """The authoritative region of logical server *server_id*."""
    if cluster.replication is not None:
        return cluster.replication.route(server_id)[1]
    return cluster.memory_server(server_id).region


def assert_memo_is_truth(cluster, accessor_for=None) -> int:
    """Every memoized page, re-read through an accessor, is field for field
    what the routed region's bytes decode to — whether the read was served
    the memoized master (counted, and returned) or refused it for its
    version and decoded afresh. *accessor_for* maps a logical server id to
    the accessor to read its pages with; by default one ``RemoteAccessor``."""
    remote = RemoteAccessor(cluster.compute_servers[0], cluster.config)
    page_size = cluster.config.tree.page_size
    hits = 0
    for raw_ptr, master in list(cluster.decode_memo.items()):
        pointer = RemotePointer.from_raw(raw_ptr)
        accessor = accessor_for(pointer.server_id) if accessor_for else remote
        served = cluster.execute(accessor.read_node(raw_ptr, True))
        hits += served is master
        truth = Node.from_bytes(
            _region(cluster, pointer.server_id).read(pointer.offset, page_size)
        )
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
    index = FineGrainedIndex.build(cluster, "idx", dataset.pairs())
    session_a = index.session(cluster.new_compute_server())
    session_b = index.session(cluster.new_compute_server())
    acc_a, acc_b = session_a._tree.acc, session_b._tree.acc
    assert acc_a is not acc_b
    key = dataset.key_at(100)
    ptr, seen_by_a = cluster.execute(session_a._tree._find_leaf(key, True))
    # B has never read this page; A's decode is the one it gets.
    assert cluster.execute(acc_b.read_node(ptr, True)) is seen_by_a

    cluster.execute(session_a.insert(key + 1, 77))
    seen_by_b = cluster.execute(acc_b.read_node(ptr, True))
    assert seen_by_b is not seen_by_a
    assert seen_by_b.version == seen_by_a.version + 2
    assert key + 1 in seen_by_b.keys and key + 1 not in seen_by_a.keys
    assert cluster.execute(session_b.lookup(key + 1)) == [77]
    # ... and the new image is again one object for both.
    assert cluster.execute(acc_a.read_node(ptr, True)) is seen_by_b


def test_local_accessor_clones_for_mutating_callers(cluster, dataset):
    index = CoarseGrainedIndex.build(
        cluster, "idx", dataset.pairs(), key_space=dataset.key_space
    )
    tree = index.partition_tree(0)
    assert isinstance(tree.acc, LocalAccessor)
    ptr = cluster.execute(tree.root.get())
    master = cluster.execute(tree.acc.read_node(ptr, True))
    assert cluster.execute(tree.acc.read_node(ptr, True)) is master
    assert cluster.decode_memo[ptr] is master

    owned = cluster.execute(tree.acc.read_node(ptr))
    assert owned is not master and owned.keys == master.keys
    before = (list(master.keys), list(master.values), master.version)
    owned.insert_entry(owned.keys[-1] + 1, 99)
    owned.version |= 1
    assert (master.keys, master.values, master.version) == before
    assert cluster.execute(tree.acc.read_node(ptr, True)) is master


def test_two_clusters_in_one_process_read_their_own_pages():
    """Equal configurations allocate equal pointers; the bytes behind them
    differ. A module-global memo would serve one cluster the other's."""
    worlds = []
    for gap in (8, 4):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=3))
        dataset = generate_dataset(1_000, gap=gap)
        index = FineGrainedIndex.build(cluster, "idx", dataset.pairs())
        session = index.session(cluster.new_compute_server())
        worlds.append((cluster, dataset, session))
    leaves = []
    for cluster, dataset, session in worlds:
        for ordinal in range(0, dataset.num_keys, 37):
            assert cluster.execute(session.lookup(dataset.key_at(ordinal))) == [ordinal]
        leaves.append(
            cluster.execute(session._tree._find_leaf(dataset.key_at(999), True))
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
        cluster, "idx", dataset.pairs(), key_space=dataset.key_space
    )
    injector = cluster.attach_faults(FaultPlan())
    remote = RemoteAccessor(cluster.new_compute_server(), cluster.config)
    victim = 1
    tree = index.partition_tree(victim)
    key = next(
        key for key, _value in dataset.pairs()
        if index.partitioner.server_for_key(key) == victim
    )
    _ptr, parent = cluster.execute(tree._descend_to_level(key, 1, True))
    leaf_ptr = parent.find_child(key)
    assert leaf_ptr not in cluster.decode_memo

    parked = cluster.spawn(tree.acc.read_node(leaf_ptr, True))
    cluster.run(until=cluster.now + tree.acc._node_cost / 2)
    assert not parked.triggered
    injector.crash_memory_server(victim)
    wiped = cluster.sim.run_until_complete(parked)
    assert (wiped.version, wiped.count) == (0, 0)  # what the dying worker saw
    assert leaf_ptr not in cluster.decode_memo

    cluster.replication.promote(victim)
    promoted = index.partition_tree(victim)
    assert promoted.acc.server is not tree.acc.server
    leaf = cluster.execute(promoted.acc.read_node(leaf_ptr, True))
    assert leaf.version == 0 and key in leaf.keys
    assert cluster.execute(remote.read_node(leaf_ptr, True)) is leaf
    assert assert_memo_is_truth(
        cluster, lambda server_id: index.partition_tree(server_id).acc
    )
    # Nor is a down host's read *served* from the memo: its handler sees
    # what it saw before the memo was the cluster's.
    again = cluster.execute(tree.acc.read_node(leaf_ptr, True))
    assert again is not leaf and again.count == 0


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

    assert cluster.execute(tree.acc.read_node(root_ptr, True)) is master
    report = verify_index(cluster, index)
    assert not report.ok
    assert any("sorted" in violation for violation in report.violations)
