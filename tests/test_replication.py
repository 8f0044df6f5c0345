"""Primary/backup replication: placement, mirroring, failover, recovery.

The contract under ``replication_factor=k > 1``:

* every logical server's region is byte-converged onto ``k - 1`` backups
  in ring order, the moment a mutation lands (synchronous state mirrors;
  the wire cost is charged separately as mirror legs);
* a memory-server crash is *destructive* — every copy the host held is
  wiped — yet no acknowledged write is lost: clients fail over to a
  promoted backup and keep going;
* with ``replication_factor == 1`` no manager exists at all and behavior
  (including the non-destructive crash semantics of the fault layer) is
  simulation-identical to the unreplicated build.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    ConfigurationWarning,
    FailoverError,
    FaultPlan,
    FineGrainedIndex,
    HybridIndex,
    ReplicaDivergenceError,
    RetryConfig,
    ServerCrash,
    check_tree,
    verify_index,
)
from repro.btree import key_columns
from repro.btree.node import Node
from repro.btree.pointers import RemotePointer, encode_pointer
from repro.errors import ConfigurationError, NetworkError, RetriesExhaustedError
from repro.index.accessors import RemoteAccessor
from repro.nam.allocator import PageAllocator
from repro.nam.rpc import RPC_HEADER_BYTES, TreeCall
from repro.rdma.memory import MemoryRegion
from repro.rdma.qp import QueuePair
from repro.workloads import generate_dataset
from tests.test_decode_memo import assert_memo_is_truth

DESIGNS = ("coarse-grained", "fine-grained", "hybrid")


def _build(design, cluster, pairs, key_space):
    if design == "coarse-grained":
        return CoarseGrainedIndex.build(cluster, "idx", *key_columns(pairs), key_space=key_space)
    if design == "fine-grained":
        return FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))
    return HybridIndex.build(cluster, "idx", *key_columns(pairs), key_space=key_space)


def _replicated_cluster(factor=2, num_servers=3, seed=23):
    return Cluster(
        ClusterConfig(
            num_memory_servers=num_servers,
            memory_servers_per_machine=1,
            replication_factor=factor,
            seed=seed,
        )
    )


class TestConfigValidation:
    def test_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(replication_factor=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_memory_servers=2, replication_factor=3)
        # factor == num_servers is the maximum legal setting.
        ClusterConfig(num_memory_servers=2, replication_factor=2)

    def test_tight_lease_warns(self):
        with pytest.warns(ConfigurationWarning, match="retry budget"):
            RetryConfig(lock_lease_s=1e-5)

    def test_default_lease_is_comfortable(self, recwarn):
        retry = RetryConfig()
        assert retry.lock_lease_s >= 2.0 * retry.retry_budget_s
        assert not [
            w for w in recwarn if issubclass(w.category, ConfigurationWarning)
        ]

    def test_retry_budget_formula(self):
        retry = RetryConfig(
            max_attempts=2, timeout_s=10e-6, base_delay_s=4e-6,
            backoff_multiplier=2.0, jitter_fraction=0.0,
        )
        # 2 * (10us + 4us * 2**1) = 36us
        assert retry.retry_budget_s == pytest.approx(36e-6)


class TestPlacementAndMirroring:
    def test_ring_placement(self):
        cluster = _replicated_cluster(factor=2, num_servers=3)
        replication = cluster.replication
        assert replication is not None
        for logical in range(3):
            copies = replication.replica_set(logical)
            assert [c.host_id for c in copies] == [logical, (logical + 1) % 3]
            assert all(c.live for c in copies)
            backup_host = cluster.memory_server((logical + 1) % 3)
            assert backup_host.backup_regions[logical] is copies[1].region

    def test_factor_one_has_no_manager(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=3, seed=23))
        assert cluster.replication is None
        assert all(
            not server.backup_regions for server in cluster.memory_servers
        )

    @pytest.mark.parametrize("design", DESIGNS)
    def test_build_converges_replicas(self, design):
        cluster = _replicated_cluster()
        dataset = generate_dataset(800, gap=4)
        _build(design, cluster, dataset.pairs(), dataset.key_space)
        cluster.replication.assert_replicas_converged()

    def test_mutations_stay_converged_and_charge_mirror_legs(self):
        cluster = _replicated_cluster()
        dataset = generate_dataset(500, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        session = index.session(cluster.new_compute_server())
        before = cluster.replication.stats["mirror_legs"]
        for i in range(50):
            cluster.execute(session.insert(dataset.key_space + i, i))
        cluster.replication.assert_replicas_converged()
        assert cluster.replication.stats["mirror_legs"] > before
        assert cluster.replication.stats["mirrored_bytes"] > 0

    def test_divergence_detected(self):
        cluster = _replicated_cluster()
        dataset = generate_dataset(300, gap=4)
        FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        replication = cluster.replication
        backup = replication.replica_set(0)[1]
        original = backup.region.read(64, 1)
        backup.region.write(64, bytes([original[0] ^ 0xFF]))
        problems = replication.replica_divergences(0)
        assert problems and "byte 64" in problems[0]
        with pytest.raises(ReplicaDivergenceError):
            replication.assert_replicas_converged()
        # Repair and the check passes again.
        backup.region.write(64, original)
        replication.assert_replicas_converged()


class TestAllocatorAdopt:
    def test_adopt_preserves_allocations(self):
        region = MemoryRegion(1 << 16, 1 << 20)
        allocator = PageAllocator(region, 512)
        offsets = [allocator.allocate() for _ in range(5)]
        adopted = PageAllocator.adopt(region, 512)
        # The bump word survives: new allocations never overlap old pages.
        fresh = adopted.allocate()
        assert fresh not in offsets
        assert fresh > max(offsets)

    def test_adopt_fresh_region_initializes(self):
        region = MemoryRegion(1 << 16, 1 << 20)
        adopted = PageAllocator.adopt(region, 512)
        first = adopted.allocate()
        assert first >= 512  # page 0 stays reserved for control words


class TestCrashSemantics:
    def test_replicated_crash_is_destructive(self):
        cluster = _replicated_cluster()
        dataset = generate_dataset(400, gap=4)
        FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        victim = cluster.memory_server(1)
        assert any(victim.region.read(0, 4096))
        injector.crash_memory_server(1)
        # The host's own region AND the backup store it held are wiped.
        backup_store = victim.backup_regions[0]
        assert not any(victim.region.read(0, len(victim.region)))
        assert not any(backup_store.read(0, len(backup_store)))
        assert cluster.replication.stats["wiped_copies"] == 2
        copies = cluster.replication.replica_set(1)
        assert not copies[0].live and copies[1].live

    def test_unreplicated_crash_preserves_region(self):
        # factor == 1 keeps PR 1's non-destructive semantics byte-for-byte:
        # the region survives the outage (only availability is lost).
        cluster = Cluster(
            ClusterConfig(num_memory_servers=2, memory_servers_per_machine=1, seed=23)
        )
        dataset = generate_dataset(400, gap=4)
        FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        victim = cluster.memory_server(1)
        snapshot = victim.region.read(0, len(victim.region))
        injector.crash_memory_server(1)
        assert victim.region.read(0, len(victim.region)) == snapshot
        injector.restart_memory_server(1)
        assert victim.region.read(0, len(victim.region)) == snapshot

    def test_restart_resyncs_from_survivors(self):
        cluster = _replicated_cluster()
        dataset = generate_dataset(400, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        injector.crash_memory_server(1)
        # Mutate while the host is down so the resync has fresh state.
        session = index.session(cluster.new_compute_server())
        for i in range(20):
            cluster.execute(session.insert(dataset.key_space + i, i))
        injector.restart_memory_server(1)
        cluster.run(until=cluster.now + 0.05)
        assert cluster.replication.stats["resynced_copies"] >= 1
        assert cluster.replication.stats["resynced_bytes"] > 0
        cluster.replication.assert_replicas_converged()


class TestFailover:
    def test_promote_reroutes_and_bumps_epoch(self):
        cluster = _replicated_cluster()
        dataset = generate_dataset(400, gap=4)
        FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        replication = cluster.replication
        epoch = cluster.catalog.epoch
        injector.crash_memory_server(1)
        replication.promote(1)
        assert cluster.catalog.epoch == epoch + 1
        assert replication.primary_host_id(1) == 2
        host, region = replication.route(1)
        assert host.server_id == 2
        assert region is cluster.memory_server(2).backup_regions[1]
        # A compute server's QP for logical 1 now terminates at host 2.
        compute = cluster.new_compute_server()
        qp = compute.qp(1)
        assert qp.region is region

    def test_client_driven_failover(self):
        cluster = _replicated_cluster()
        dataset = generate_dataset(600, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        session = index.session(cluster.new_compute_server())
        injector.crash_memory_server(1)
        # Lookups spanning all partitions: the first one that hits the dead
        # primary exhausts retries, promotes, and every later op re-routes.
        for i in range(0, dataset.num_keys, 97):
            assert cluster.execute(session.lookup(dataset.key_at(i))) == [i]
        assert cluster.replication.stats["failovers"] >= 1
        assert injector.stats["retries"] > 0

    def test_failover_error_when_no_replica_left(self):
        cluster = _replicated_cluster(factor=2, num_servers=2)
        dataset = generate_dataset(300, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        injector.crash_memory_server(0)
        injector.crash_memory_server(1)
        session = index.session(cluster.new_compute_server())
        with pytest.raises(FailoverError):
            cluster.execute(session.lookup(dataset.key_at(5)))

    def test_re_replication_restores_factor(self):
        cluster = _replicated_cluster(factor=2, num_servers=4)
        dataset = generate_dataset(400, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan())
        injector.crash_memory_server(1)
        session = index.session(cluster.new_compute_server())
        for i in range(0, dataset.num_keys, 61):
            assert cluster.execute(session.lookup(dataset.key_at(i))) == [i]
        cluster.run(until=cluster.now + 0.05)
        assert cluster.replication.stats["re_replications"] >= 1
        live = [
            c for c in cluster.replication.replica_set(1) if c.live
        ]
        assert len(live) >= 2
        cluster.replication.assert_replicas_converged()


@pytest.mark.parametrize("design", ("coarse-grained", "hybrid"))
def test_partition_tree_follows_the_promotion(design):
    """``local_tree`` / ``inner_tree`` promise "Routed: after a failover the
    tree lives on the promoted host": once a client failed over, the
    partition's registered tree is the one the promotion installed on the
    new host, over the adopted replica region, and it serves the data."""
    cluster = _replicated_cluster(factor=2, num_servers=3)
    dataset = generate_dataset(600, gap=4)
    index = _build(design, cluster, dataset.pairs(), dataset.key_space)
    injector = cluster.attach_faults(FaultPlan())
    session = index.session(cluster.new_compute_server())
    victim = 1
    built = index.partition_tree(victim)
    assert built.acc.server is cluster.memory_server(victim)
    ordinal = next(
        i for i in range(dataset.num_keys)
        if index.partitioner.server_for_key(dataset.key_at(i)) == victim
    )

    injector.crash_memory_server(victim)
    # The lookup exhausts its retries on the dead primary, promotes the
    # backup and is answered by the re-installed tree.
    assert cluster.execute(session.lookup(dataset.key_at(ordinal))) == [ordinal]
    assert cluster.replication.stats["failovers"] == 1

    host, region = cluster.replication.route(victim)
    assert host.server_id != victim
    tree = index.partition_tree(victim)
    assert tree is not built
    assert tree is host.app[design, "idx", victim]
    assert tree.acc.server is host
    assert tree.acc.region is region and tree.root.region is region
    named = index.local_tree if design == "coarse-grained" else index.inner_tree
    assert named(victim) is tree
    # The hybrid's one-sided handle walks the promoted inner levels down
    # through the seam to the scattered leaves.
    if design == "hybrid":
        tree = index.gc_tree(cluster.new_compute_server(), victim)
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
    assert report.nodes >= 1
    assert report.entries == sum(
        index.partitioner.server_for_key(key) == victim
        for key, _value in dataset.pairs()
    )


# -- failover is decided in the queue pair's executor -----------------------

#: A scratch word on logical server 1 (holding ``_WORD``) and the 8 bytes
#: after it, well inside the region's initial registration.
_OFF = 4096
_WORD = 7
_PAGE = (21).to_bytes(8, "little") + b"unlocked"


def _word(region, offset=_OFF):
    return int.from_bytes(region.read(offset, 8), "little")


def _batch_of_three_reads(qp):
    return qp.batch().read(_OFF, 8).read(_OFF + 8, 8).read(_OFF, 16).execute()


#: verb -> (post it on a queue pair, check its result and the promoted region)
_VERB_CASES = {
    "read": (
        lambda qp: qp.read(_OFF, 8),
        lambda result, region: _word(region) == _WORD
        and result == _WORD.to_bytes(8, "little"),
    ),
    "read_view": (
        lambda qp: qp.read_view(_OFF, 8),
        lambda result, region: bytes(result) == _WORD.to_bytes(8, "little"),
    ),
    "write": (
        lambda qp: qp.write(_OFF + 8, b"failover"),
        lambda result, region: region.read(_OFF + 8, 8) == b"failover"
        and _word(region) == _WORD,
    ),
    "compare_and_swap": (
        lambda qp: qp.compare_and_swap(_OFF, _WORD, 99),
        lambda result, region: result == (True, _WORD) and _word(region) == 99,
    ),
    "fetch_and_add": (
        lambda qp: qp.fetch_and_add(_OFF, 5),
        lambda result, region: result == _WORD and _word(region) == _WORD + 5,
    ),
    "write_faa_chain": (
        lambda qp: qp.write_faa_chain(_OFF, _PAGE),
        # The FAA's old word is the image's; exactly one bump landed.
        lambda result, region: result == 21
        and _word(region) == 22
        and region.read(_OFF + 8, 8) == b"unlocked",
    ),
    "batch": (
        _batch_of_three_reads,
        lambda result, region: result
        == [
            _WORD.to_bytes(8, "little"),
            b"original",
            _WORD.to_bytes(8, "little") + b"original",
        ],
    ),
}


def _crashed_primary():
    """Replicated cluster, no-op fault plan, logical server 1's primary
    crashed after a queue pair to it was resolved."""
    cluster = _replicated_cluster()
    cluster.memory_server(1).region.write(
        _OFF, _WORD.to_bytes(8, "little") + b"original"
    )
    injector = cluster.attach_faults(FaultPlan())
    compute = cluster.new_compute_server()
    qp = compute.qp(1)
    assert qp.remote is cluster.memory_server(1)
    injector.crash_memory_server(1)
    return cluster, injector, qp


@pytest.mark.parametrize("verb", [*_VERB_CASES, "call"])
def test_exhausted_verb_fails_over_in_the_executor(verb):
    """No accessor, no wrapper: a verb posted straight on ``compute.qp(sid)``
    spends its retry budget against the dead primary, promotes the backup
    from inside the executor and completes against the promoted region,
    landing its effect there exactly once."""
    cluster, injector, qp = _crashed_primary()
    replication = cluster.replication
    handled = {host.server_id: 0 for host in cluster.memory_servers}
    if verb == "call":

        def handler(srv, call):
            handled[srv.server_id] += 1
            yield srv.cpu(1e-6)
            return True, RPC_HEADER_BYTES

        for host in cluster.memory_servers:
            host.register_handler("lookup", handler)
        request = TreeCall("lookup", "idx", 1, (42,))
        result = cluster.execute(qp.call(request, request.wire_bytes))
        assert result is True
        assert handled == {0: 0, 1: 0, 2: 1}
    else:
        post, landed = _VERB_CASES[verb]
        result = cluster.execute(post(qp))
        promoted = cluster.memory_server(2).backup_regions[1]
        assert replication.route(1)[1] is promoted
        assert landed(result, promoted)
    assert replication.stats["failovers"] == 1
    assert replication.primary_host_id(1) == 2
    # A second compute server, built after the promotion, is routed when
    # it is built: its first post burns no retry budget and promotes
    # nothing.
    retries = injector.stats["retries"]
    assert retries >= cluster.config.retry.max_attempts - 1
    other = cluster.new_compute_server()
    cluster.execute(other.qp(1).read(_OFF, 8))
    assert other.qp(1).remote is cluster.memory_server(2)
    assert injector.stats["retries"] == retries
    assert replication.stats["failovers"] == 1


def test_lossy_link_to_healthy_primary_never_promotes():
    """docs/replication.md step 4: failover is for dead servers. A live
    primary behind a 100 %-drop link still exhausts its retries."""
    cluster = _replicated_cluster()
    cluster.attach_faults(FaultPlan(server_drop={1: 1.0}))
    compute = cluster.new_compute_server()
    epoch = cluster.catalog.epoch
    with pytest.raises(RetriesExhaustedError):
        cluster.execute(compute.qp(1).read(_OFF, 8))
    assert cluster.replication.stats["failovers"] == 0
    assert cluster.catalog.epoch == epoch
    assert compute.qp(1).remote is cluster.memory_server(1)


def test_ownerless_queue_pair_raises_as_before():
    """Failover re-posts on the owner's re-routed queue pair; an anonymous
    queue pair has no owner to ask, so exhaustion surfaces unchanged."""
    cluster, _injector, routed = _crashed_primary()
    anonymous = QueuePair(
        cluster.sim, cluster.fabric, routed.local_port, cluster.memory_server(1)
    )
    with pytest.raises(RetriesExhaustedError):
        cluster.execute(anonymous.read(_OFF, 8))
    assert cluster.replication.stats["failovers"] == 0


class TestRouting:
    """Where a compute server's queue pair to a logical server points."""

    def test_promotion_re_points_a_built_compute_server(self):
        """promote(1) re-points the entry of a compute server built before
        it at the promoted host and region, with no verb posted; the other
        logical servers keep their queue pairs."""
        cluster = _replicated_cluster()
        injector = cluster.attach_faults(FaultPlan())
        compute = cluster.new_compute_server()
        before, untouched = compute.qp(1), compute.qp(0)
        assert before.remote is cluster.memory_server(1)
        injector.crash_memory_server(1)
        cluster.replication.promote(1)
        routed = compute.qp(1)
        assert routed is not before
        assert routed.remote is cluster.memory_server(2)
        assert routed.region is cluster.memory_server(2).backup_regions[1]
        assert routed.logical_id == 1
        assert compute.qp(0) is untouched

    def test_a_verb_in_flight_across_a_promotion_completes_on_its_queue_pair(self):
        """A READ posted before promote(1) lands on the region of the queue
        pair it was posted on; the next READ goes to the promoted copy.
        The demoted region no longer mirrors, so a store into it alone
        tells the two apart."""
        cluster = _replicated_cluster()
        old_region = cluster.memory_server(1).region
        old_region.write(_OFF, b"original")
        compute = cluster.new_compute_server()
        posted = compute.qp(1)
        read = cluster.spawn(posted.read(_OFF, 8))
        cluster.run(cluster.now + cluster.config.network.one_way_latency_s / 2)
        assert not read.triggered
        cluster.replication.promote(1)
        old_region.write(_OFF, b"demoted!")
        assert cluster.sim.run_until_complete(read) == b"demoted!"
        assert compute.qp(1) is not posted
        assert cluster.execute(compute.qp(1).read(_OFF, 8)) == b"original"

    def test_a_pointer_to_an_unconnected_server_raises_network_error(self):
        cluster = _replicated_cluster()
        accessor = RemoteAccessor(cluster.new_compute_server(), cluster.config)
        with pytest.raises(NetworkError, match="no QP to memory server 5"):
            cluster.execute(accessor.read_node(encode_pointer(5, 4096)))


@pytest.mark.parametrize("design", DESIGNS)
def test_crash_loses_no_acknowledged_write(design):
    """The headline acceptance scenario: destructively crash a memory
    server mid-workload at factor 2; every write acknowledged before,
    during, or after the outage must survive, the verifier must pass, and
    the replicas must be byte-converged."""
    cluster = _replicated_cluster(factor=2, num_servers=3)
    dataset = generate_dataset(800, gap=4)
    index = _build(design, cluster, dataset.pairs(), dataset.key_space)
    injector = cluster.attach_faults(FaultPlan())
    session = index.session(cluster.new_compute_server())

    acked = []

    def insert_batch(start, count):
        # Fresh keys interleaved across the whole key range (the dataset
        # leaves gaps), so every batch touches every partition — including
        # the victim's.
        for i in range(start, start + count):
            key = dataset.key_at(i * 6) + 1
            cluster.execute(session.insert(key, key * 10))
            acked.append(key)

    insert_batch(0, 40)  # healthy cluster
    injector.crash_memory_server(1)
    insert_batch(40, 40)  # during the outage: failover path
    injector.restart_memory_server(1)
    cluster.run(until=cluster.now + 0.05)
    insert_batch(80, 40)  # after resync
    injector.quiesce()

    lost = [
        key
        for key in acked
        if cluster.execute(session.lookup(key)) != [key * 10]
    ]
    assert not lost
    assert cluster.replication.stats["failovers"] >= 1
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    assert report.entries >= dataset.num_keys + len(acked)
    cluster.replication.assert_replicas_converged()


@pytest.mark.parametrize("design", DESIGNS)
def test_scheduled_crash_under_workload(design):
    """Same guarantee via the scheduled-crash plan: concurrent clients keep
    writing across a crash/restart window; acknowledged inserts survive."""
    cluster = _replicated_cluster(factor=2, num_servers=3, seed=29)
    dataset = generate_dataset(600, gap=4)
    index = _build(design, cluster, dataset.pairs(), dataset.key_space)
    injector = cluster.attach_faults(
        FaultPlan(
            seed=7,
            server_crashes=(ServerCrash(1, at_s=0.0005, down_for_s=0.002),),
        )
    )

    acked = []

    def writer(cid, count):
        session = index.session(cluster.new_compute_server())
        for i in range(count):
            # Interleave fresh keys across the range so every client
            # writes to every partition, including the victim's.
            key = dataset.key_at((cid + i * 4) % dataset.num_keys) + 1
            yield from session.insert(key, cid * 1_000_000 + i)
            acked.append((key, cid * 1_000_000 + i))

    procs = [cluster.spawn(writer(cid, 60)) for cid in range(4)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    assert injector.stats["server_crashes"] == 1
    cluster.run(until=max(cluster.now, 0.003) + 0.01)
    assert injector.stats["server_restarts"] == 1
    injector.quiesce()

    session = index.session(cluster.new_compute_server())
    for key, value in acked:
        assert value in cluster.execute(session.lookup(key))
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    cluster.replication.assert_replicas_converged()


@pytest.mark.parametrize("design", DESIGNS)
def test_decode_memo_serves_the_authoritative_bytes_across_a_failover(design):
    """The decode memo stays on under fault injection and replication
    (``Cluster.decode_memo`` carries the argument). The differential pin:
    clients read and write through a lossy fabric across a destructive
    crash and failover; afterwards every page the cluster has memoized,
    re-read through an accessor, is field for field what the routed —
    authoritative — region's bytes decode to. The coarse-grained id reads
    through the promoted host's ``LocalAccessor`` over its adopted region:
    the server-side memo across a promotion."""
    cluster = _replicated_cluster(factor=2, num_servers=3, seed=31)
    dataset = generate_dataset(600, gap=4)
    index = _build(design, cluster, dataset.pairs(), dataset.key_space)
    injector = cluster.attach_faults(
        FaultPlan(
            seed=5,
            drop_probability=0.02,
            delay_probability=0.05,
            delay_s=30e-6,
            duplicate_probability=0.02,
            server_crashes=(ServerCrash(1, at_s=0.0005, down_for_s=0.002),),
        )
    )
    sessions = [index.session(cluster.new_compute_server()) for _ in range(4)]

    def client(cid, session):
        for i in range(80):
            key = dataset.key_at((cid + i * 4) % dataset.num_keys)
            try:
                yield from session.lookup(key)
                yield from session.insert(key + 1, cid * 1_000 + i)
                if i % 5 == 0:
                    yield from session.delete(key + 1)
            except RetriesExhaustedError:
                pass  # typed and bounded: the lossy plan may exhaust a verb

    procs = [cluster.spawn(client(cid, s)) for cid, s in enumerate(sessions)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    assert cluster.replication.stats["failovers"] >= 1
    cluster.run(until=max(cluster.now, 0.003) + 0.01)
    injector.quiesce()

    assert cluster.decode_memo  # the memo was on for the whole faulty run
    # Server 1's pages are served from a promoted host's adopted region.
    assert cluster.replication.primary_host_id(1) != 1
    def local(server_id):
        return index.partition_tree(server_id).acc

    served_masters = assert_memo_is_truth(
        cluster, local if design == "coarse-grained" else None
    )
    assert served_masters  # ... not only fresh decodes
    cluster.replication.assert_replicas_converged()


def test_factor_one_is_simulation_identical_to_baseline():
    """replication_factor=1 must not perturb the simulation at all: same
    results, same completion times, same network counters as the default
    config."""
    outcomes = []
    for factor in (None, 1):
        config = ClusterConfig(num_memory_servers=2, seed=31)
        if factor is not None:
            config = config.with_(replication_factor=factor)
        cluster = Cluster(config)
        dataset = generate_dataset(500, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        session = index.session(cluster.new_compute_server())
        trace = []
        for i in range(60):
            key = dataset.key_at(i * 11 % dataset.num_keys)
            trace.append((cluster.execute(session.lookup(key)), cluster.now))
            cluster.execute(session.insert(key + 1, i))
            trace.append(cluster.now)
        trace.append(cluster.execute(session.range_scan(0, 400)))
        outcomes.append(trace)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("design", DESIGNS)
def test_verifier_passes_on_healthy_index(design):
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=17))
    dataset = generate_dataset(700, gap=4)
    index = _build(design, cluster, dataset.pairs(), dataset.key_space)
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    assert report.unreachable_pages == 0
    assert report.entries == dataset.num_keys
    assert report.nodes > report.leaves > 0
    assert report.replicas_checked == 0  # no replication configured
    assert "OK" in report.summary()


def test_verifier_detects_corruption():
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=17))
    dataset = generate_dataset(700, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    tree = index.tree_for(cluster.new_compute_server())
    # Swap two keys in a leaf so its entries are no longer sorted.
    raw_ptr, _ = cluster.execute(tree._descend_to_level(dataset.key_at(0), 0))
    pointer = RemotePointer.from_raw(raw_ptr)
    page_size = cluster.config.tree.page_size
    region = cluster.memory_server(pointer.server_id).region
    node = Node.from_bytes(region.read(pointer.offset, page_size))
    assert node.count >= 2
    node.keys[0], node.keys[1] = node.keys[1], node.keys[0]
    region.write(pointer.offset, node.to_bytes(page_size))
    report = verify_index(cluster, index)
    assert not report.ok
    assert any("sorted" in violation for violation in report.violations)
