"""Doorbell batching: VerbBatch semantics, wire accounting, fault
interaction, and the batched index consumers.

The contract under test:

* a batch is ONE request message and ONE response message (selective
  signaling) whose sizes are the sums of the member verbs' legs — the
  per-message fixed costs are paid once per leg, not once per verb;
* effects apply in posting order (a WRITE+FAA unlock batch is a release
  store followed by the version bump);
* per-verb results come back in posting order, and per-verb stats /
  traces / doorbell counters stay exact;
* under fault injection the two legs live or die as a unit while memory
  effects keep at-most-once replay semantics across retries;
* batched and unbatched executions return identical index results —
  batching is a wire optimization, never a semantic change.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    FineGrainedIndex,
    RetriesExhaustedError,
    ServerCrash,
    verify_index,
)
from repro.analysis.namsan.events import TraceCollector
from repro.analysis.namsan.sanitizer import RaceDetector
from repro.btree.node import Node, NodeType
from repro.btree.pointers import encode_pointer
from repro.config import NetworkConfig, RetryConfig, TreeConfig
from repro.errors import NetworkError
from repro.index.accessors import RemoteAccessor
from repro.rdma.tracing import VerbTracer
from repro.rdma.verbs import Verb
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset


@pytest.fixture
def wired(cluster):
    return cluster, cluster.new_compute_server()


# --------------------------------------------------------------------------- #
# VerbBatch semantics                                                          #
# --------------------------------------------------------------------------- #

class TestVerbBatchSemantics:
    def test_results_in_posting_order(self, wired):
        cluster, compute = wired
        server = cluster.memory_server(0)
        server.region.write(1024, b"aaaa")
        server.region.write(2048, b"bb")
        server.region.write(4096, b"cccccc")
        batch = compute.qp(0).batch()
        batch.read(4096, 6).read(1024, 4).read(2048, 2)
        results = cluster.execute(batch.execute())
        assert results == [b"cccccc", b"aaaa", b"bb"]

    def test_effects_apply_in_posting_order(self, wired):
        """WRITE then FAA on the same word: the FAA must see the written
        value — in-order execution on the RC queue pair."""
        cluster, compute = wired
        server = cluster.memory_server(1)
        server.region.write_u64(512, 7)
        batch = compute.qp(1).batch()
        batch.write(512, (100).to_bytes(8, "little"))
        batch.fetch_and_add(512, 1)
        results = cluster.execute(batch.execute())
        assert results[0] is None
        assert results[1] == 100  # old value AFTER the write, not 7
        assert server.region.read_u64(512) == 101

    def test_single_message_pair_wire_bytes(self, wired):
        """N batched READs cost one request message (summed request words
        + one header) and one response message (summed payloads + one
        header) — exact, not approximate."""
        cluster, compute = wired
        server = cluster.memory_server(0)
        network = cluster.config.network
        n, length = 5, 256
        tx0, rx0 = server.port.traffic()
        batch = compute.qp(0).batch()
        for i in range(n):
            batch.read(i * length, length)
        cluster.execute(batch.execute())
        tx1, rx1 = server.port.traffic()
        assert rx1 - rx0 == n * network.request_wire_bytes + network.header_wire_bytes
        assert tx1 - tx0 == n * length + network.header_wire_bytes

    def test_unbatched_pays_per_message_headers(self, wired):
        cluster, compute = wired
        server = cluster.memory_server(0)
        network = cluster.config.network
        n, length = 5, 256
        tx0, rx0 = server.port.traffic()
        for i in range(n):
            cluster.execute(compute.qp(0).read(i * length, length))
        tx1, rx1 = server.port.traffic()
        assert rx1 - rx0 == n * (
            network.request_wire_bytes + network.header_wire_bytes
        )
        assert tx1 - tx0 == n * (length + network.header_wire_bytes)

    @pytest.mark.parametrize("mode", ["fault-free", "lossy", "replicated"])
    @pytest.mark.parametrize("verb", ["read", "write", "cas", "faa"])
    def test_batch_of_one_matches_single_verb(self, verb, mode):
        """A single verb is a chain of one: posted bare or through a
        one-entry batch it leaves the same memory, stats, wire traffic,
        doorbells, clock and — under a plan — the same injector state."""

        def run(batched: bool):
            cluster = Cluster(
                ClusterConfig(
                    num_memory_servers=3,
                    memory_servers_per_machine=1,
                    replication_factor=2 if mode == "replicated" else 1,
                    seed=41,
                )
            )
            compute = cluster.new_compute_server()
            injector = None
            if mode == "lossy":
                injector = cluster.attach_faults(
                    FaultPlan(
                        seed=13,
                        drop_probability=0.15,
                        delay_probability=0.1,
                        duplicate_probability=0.1,
                    )
                )
            def post(target, i: int):
                offset = 4096 + 64 * i
                if verb == "read":
                    return target.read(offset, 48)
                if verb == "write":
                    return target.write(offset, bytes([i + 1]) * 48)
                if verb == "cas":
                    return target.compare_and_swap(offset, 0, i + 1)
                return target.fetch_and_add(4096, i + 1)

            outcomes = []
            for i in range(25):
                qp = compute.qp(0)
                try:
                    if batched:
                        outcomes.append(cluster.execute(post(qp.batch(), i).execute())[0])
                    else:
                        outcomes.append(cluster.execute(post(qp, i)))
                except RetriesExhaustedError as exc:
                    outcomes.append(type(exc).__name__)
            ports = [compute.port] + [
                cluster.memory_server(i).port for i in range(3)
            ]
            state = {
                "outcomes": outcomes,
                "regions": [
                    cluster.memory_server(i).region.read(0, 8192) for i in range(3)
                ],
                "stats": [
                    (dict(cluster.memory_server(i).stats.ops),
                     dict(cluster.memory_server(i).stats.bytes))
                    for i in range(3)
                ],
                "channels": [(p.tx.snapshot(), p.rx.snapshot()) for p in ports],
                "doorbells": (compute.port.doorbells, compute.port.wqes_posted),
                "now": cluster.now,
            }
            if injector is not None:
                state["injector"] = dict(injector.stats)
                state["next_draw"] = injector.rng.random()
            return state

        single, batch = run(batched=False), run(batched=True)
        assert single == batch
        if mode == "lossy":
            assert single["injector"]["drops"] > 0
            assert single["injector"]["retries"] > 0

    def test_read_view_goes_through_the_injector(self):
        """read_view is read with a borrow flag: under a lossy plan it is
        dropped and retried like any verb and hands back the right —
        copied — bytes."""
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=43))
        compute = cluster.new_compute_server()
        cluster.memory_server(0).region.write(4096, b"borrowed" * 8)
        injector = cluster.attach_faults(FaultPlan(seed=3, drop_probability=0.3))
        for _ in range(20):
            try:
                data = cluster.execute(compute.qp(0).read_view(4096, 64))
            except RetriesExhaustedError:
                continue
            assert bytes(data) == b"borrowed" * 8
        injector.quiesce()
        assert injector.stats["drops"] > 0
        assert bytes(cluster.execute(compute.qp(0).read_view(4096, 64))) == b"borrowed" * 8

    def test_completion_reported_after_mirror_legs(self):
        """Mirror legs are charged before the client's completion on every
        path: a replicated WRITE traces the same duration posted bare or
        in a batch, and a longer one than without replication."""

        def durations(replication_factor: int):
            cluster = Cluster(
                ClusterConfig(
                    num_memory_servers=3,
                    memory_servers_per_machine=1,
                    replication_factor=replication_factor,
                    seed=47,
                )
            )
            qp = cluster.new_compute_server().qp(0)
            with VerbTracer(cluster) as tracer:
                cluster.execute(qp.write(4096, b"x" * 256))
                cluster.execute(qp.batch().write(8192, b"x" * 256).execute())
            return [record.duration for record in tracer.records]

        single, batched = durations(replication_factor=2)
        assert single == pytest.approx(batched)
        assert single > durations(replication_factor=1)[0]

    def test_batched_faster_than_parallel_singles(self):
        """On a message-rate-bound link the batch saves (N-1) per-message
        overheads on each leg."""
        config = ClusterConfig(
            num_memory_servers=2,
            seed=5,
            network=NetworkConfig(message_overhead_s=1.0e-6),
        )
        n, length = 8, 512

        def elapsed(batched: bool) -> float:
            cluster = Cluster(config)
            compute = cluster.new_compute_server()
            requests = [(i * length, length) for i in range(n)]
            start = cluster.now
            if batched:
                batch = compute.qp(0).batch()
                for offset, size in requests:
                    batch.read(offset, size)
                cluster.execute(batch.execute())
            else:
                qp = compute.qp(0)
                procs = [
                    cluster.spawn(qp.read(offset, size))
                    for offset, size in requests
                ]
                cluster.sim.run_until_complete(cluster.sim.all_of(procs))
            return cluster.now - start

        saved = elapsed(batched=False) - elapsed(batched=True)
        # Each leg collapses n messages into one; parallel singles overlap
        # some of their per-message costs with latency, so demand at least
        # half of the (n-1) per-leg overheads back.
        assert saved >= (n - 1) * 0.5e-6

    def test_stats_recorded_per_verb(self, wired):
        cluster, compute = wired
        server = cluster.memory_server(2)
        batch = compute.qp(2).batch()
        batch.read(0, 128).write(256, b"x" * 64).fetch_and_add(512, 1)
        cluster.execute(batch.execute())
        assert server.stats.ops[Verb.READ] == 1
        assert server.stats.bytes[Verb.READ] == 128
        assert server.stats.ops[Verb.WRITE] == 1
        assert server.stats.bytes[Verb.WRITE] == 64
        assert server.stats.ops[Verb.FETCH_ADD] == 1

    def test_doorbell_counters(self, wired):
        cluster, compute = wired
        qp = compute.qp(0)
        port = qp.local_port
        assert (port.doorbells, port.wqes_posted) == (0, 0)
        cluster.execute(qp.read(0, 64))
        assert (port.doorbells, port.wqes_posted) == (1, 1)
        batch = qp.batch()
        for i in range(4):
            batch.read(i * 64, 64)
        cluster.execute(batch.execute())
        assert (port.doorbells, port.wqes_posted) == (2, 5)

    def test_tracer_batch_id_shared_and_formatted(self, wired):
        cluster, compute = wired
        with VerbTracer(cluster) as tracer:
            batch = compute.qp(0).batch()
            batch.read(0, 64).read(64, 64).read(128, 64)
            cluster.execute(batch.execute())
            cluster.execute(compute.qp(0).read(0, 64))
        batched = [r for r in tracer.records if r.batch_id is not None]
        assert len(batched) == 3
        assert len({r.batch_id for r in batched}) == 1
        assert tracer.doorbells == 2  # one batch + one single verb
        assert tracer.batch_sizes() == [3]
        assert f"b{batched[0].batch_id}" in tracer.format()

    def test_empty_batch_is_a_noop(self, wired):
        cluster, compute = wired
        qp = compute.qp(0)
        before = (cluster.now, qp.local_port.doorbells)
        results = cluster.execute(qp.batch().execute())
        assert results == []
        assert (cluster.now, qp.local_port.doorbells) == before

    def test_post_after_execute_raises(self, wired):
        cluster, compute = wired
        batch = compute.qp(0).batch().read(0, 64)
        cluster.execute(batch.execute())
        with pytest.raises(NetworkError, match="already-executed"):
            batch.read(64, 64)

    def test_execute_twice_raises(self, wired):
        cluster, compute = wired
        batch = compute.qp(0).batch().read(0, 64)
        cluster.execute(batch.execute())
        with pytest.raises(NetworkError, match="already executed"):
            cluster.execute(batch.execute())

    def test_cas_in_batch(self, wired):
        cluster, compute = wired
        server = cluster.memory_server(0)
        server.region.write_u64(64, 7)
        batch = compute.qp(0).batch()
        batch.compare_and_swap(64, 7, 9).compare_and_swap(64, 7, 11)
        results = cluster.execute(batch.execute())
        assert results[0] == (True, 7)
        assert results[1] == (False, 9)  # sees the first CAS's effect
        assert server.region.read_u64(64) == 9


# --------------------------------------------------------------------------- #
# fault interaction                                                            #
# --------------------------------------------------------------------------- #

class TestBatchFaults:
    def test_chained_reads_correct_under_drop_delay_duplicate(self):
        """A batch's two wire legs live or die as a unit; retries replay the
        whole chain — the caller always gets every payload back intact."""
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=19))
        compute = cluster.new_compute_server()
        server = cluster.memory_server(0)
        requests = [(4096 + i * 64, 64) for i in range(12)]
        expected = []
        for offset, length in requests:
            payload = bytes([offset % 251]) * length
            server.region.write(offset, payload)
            expected.append(payload)
        injector = cluster.attach_faults(
            FaultPlan(
                seed=3,
                drop_probability=0.15,
                delay_probability=0.1,
                delay_s=20e-6,
                duplicate_probability=0.1,
            )
        )
        for _ in range(10):
            batch = compute.qp(0).batch()
            for offset, length in requests:
                batch.read(offset, length)
            assert cluster.execute(batch.execute()) == expected
        injector.quiesce()
        assert injector.stats["drops"] > 0
        assert injector.stats["retries"] > 0

    def test_effects_replay_at_most_once(self):
        """Response-leg loss must not double-apply the chain's memory
        effects on retry: each FAA lands exactly once per successful batch,
        at most once per abandoned one."""
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=23))
        compute = cluster.new_compute_server()
        region = cluster.memory_server(0).region
        injector = cluster.attach_faults(FaultPlan(seed=5, drop_probability=0.3))
        successes = []
        for i in range(30):
            base = 4096 + i * 16
            batch = compute.qp(0).batch()
            batch.fetch_and_add(base, 1).fetch_and_add(base + 8, 1)
            try:
                cluster.execute(batch.execute())
            except RetriesExhaustedError:
                successes.append(False)
            else:
                successes.append(True)
        injector.quiesce()
        assert injector.stats["drops"] > 0
        for i, succeeded in enumerate(successes):
            base = 4096 + i * 16
            pair = (region.read_u64(base), region.read_u64(base + 8))
            if succeeded:
                # Never 2: a retry after a lost response must not re-add.
                assert pair == (1, 1), (i, pair)
            else:
                # The request leg may or may not have landed before we
                # gave up — but never more than once.
                assert pair in ((0, 0), (1, 1)), (i, pair)

    def test_duplicate_delivery_applies_effects_once(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=29))
        compute = cluster.new_compute_server()
        region = cluster.memory_server(0).region
        injector = cluster.attach_faults(
            FaultPlan(seed=7, duplicate_probability=1.0)
        )
        batch = compute.qp(0).batch()
        batch.fetch_and_add(4096, 1).write(8192, b"payload!")
        cluster.execute(batch.execute())
        injector.quiesce()
        assert injector.stats["duplicates"] > 0
        assert region.read_u64(4096) == 1
        assert region.read(8192, 8) == b"payload!"

    def test_retries_exhausted_names_the_batch(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=31))
        compute = cluster.new_compute_server()
        cluster.attach_faults(FaultPlan(seed=9, server_drop={0: 1.0}))
        batch = compute.qp(0).batch().read(0, 64).read(64, 64)
        with pytest.raises(RetriesExhaustedError, match="doorbell batch of 2"):
            cluster.execute(batch.execute())

    def test_read_nodes_failover_mid_batch(self):
        """A memory server dies while a scan-heavy workload fans out batched
        leaf reads; with replication the batches fail over to the backup
        and the tree stays intact."""
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=3,
                memory_servers_per_machine=1,
                replication_factor=2,
                clients_per_compute_server=4,
                seed=37,
            )
        )
        dataset = generate_dataset(600, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(
            FaultPlan(
                seed=11,
                server_crashes=(ServerCrash(1, at_s=0.0015, down_for_s=0.002),),
            )
        )
        spec = WorkloadSpec(
            name="scan-heavy",
            point_fraction=0.2,
            range_fraction=0.7,
            insert_fraction=0.1,
            selectivity=0.05,
        )
        runner = WorkloadRunner(cluster, dataset)
        result = runner.run(
            index, spec, num_clients=8, warmup_s=0.001, measure_s=0.005, seed=13
        )
        assert result.total_ops > 0
        assert injector.stats["server_crashes"] == 1
        assert cluster.replication.stats["failovers"] >= 1
        injector.quiesce()
        report = verify_index(cluster, index)
        assert report.ok, report.violations
        cluster.replication.assert_replicas_converged()


# --------------------------------------------------------------------------- #
# batched unlock_write                                                         #
# --------------------------------------------------------------------------- #

def _plant_leaf(cluster, server_id: int, offset: int, version: int = 4):
    """Write a well-formed leaf page into a server's region directly."""
    page_size = cluster.config.tree.page_size
    node = Node(
        NodeType.LEAF, 0, version=version, keys=[10, 20], values=[1, 2]
    )
    cluster.memory_server(server_id).region.write(
        offset, node.to_bytes(page_size)
    )
    return encode_pointer(server_id, offset), node


class TestBatchedUnlockWrite:
    def test_one_doorbell_two_wqes_and_version_parity(self, cluster):
        compute = cluster.new_compute_server()
        accessor = RemoteAccessor(compute, cluster.config)
        raw_ptr, node = _plant_leaf(cluster, 0, 8192, version=4)
        region = cluster.memory_server(0).region

        locked = cluster.execute(accessor.try_lock(raw_ptr, 4))
        assert locked and region.read_u64(8192) & 1

        node.insert_entry(15, 99)
        port = compute.qp(0).local_port
        doorbells_before = port.doorbells
        with VerbTracer(cluster) as tracer:
            cluster.execute(accessor.unlock_write(raw_ptr, node))
        # One doorbell carried both the page WRITE and the releasing FAA.
        assert port.doorbells == doorbells_before + 1
        assert tracer.batch_sizes() == [2]
        assert [r.verb for r in tracer.records] == [Verb.WRITE, Verb.FETCH_ADD]
        # The version word is even (unlocked), tag-free, and advanced; the
        # page contents are the updated entries.
        word = region.read_u64(8192)
        assert word == 6
        reread = cluster.execute(accessor.read_node(raw_ptr))
        assert reread.keys == [10, 15, 20]
        assert reread.values == [1, 99, 2]

    def test_unbatched_override_uses_two_round_trips(self, small_config):
        cluster = Cluster(
            small_config.with_(network=NetworkConfig(doorbell_batching=False))
        )
        compute = cluster.new_compute_server()
        accessor = RemoteAccessor(compute, cluster.config)
        raw_ptr, node = _plant_leaf(cluster, 1, 8192, version=4)
        assert cluster.execute(accessor.try_lock(raw_ptr, 4))
        with VerbTracer(cluster) as tracer:
            cluster.execute(accessor.unlock_write(raw_ptr, node))
        assert tracer.batch_sizes() == []
        assert tracer.round_trips == 2
        assert cluster.memory_server(1).region.read_u64(8192) == 6

    def test_batched_chaos_workload_is_race_free(self):
        """Insert-heavy chaos on the fine-grained design with batching on:
        the WRITE->FAA chain must still publish the version word only
        after the page contents — zero happens-before races."""
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=3,
                memory_servers_per_machine=1,
                clients_per_compute_server=2,
                seed=29,
            )
        )
        dataset = generate_dataset(600, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        collector = TraceCollector().attach(cluster)
        injector = cluster.attach_faults(
            FaultPlan(
                seed=31,
                drop_probability=0.02,
                delay_probability=0.05,
                delay_s=30e-6,
                duplicate_probability=0.02,
            )
        )
        spec = WorkloadSpec(
            name="batch-chaos",
            point_fraction=0.3,
            range_fraction=0.1,
            insert_fraction=0.6,
            selectivity=0.01,
        )
        runner = WorkloadRunner(cluster, dataset)
        result = runner.run(
            index, spec, num_clients=6, warmup_s=0.001, measure_s=0.006, seed=23
        )
        assert result.total_ops > 0
        injector.quiesce()
        report = verify_index(cluster, index)
        assert report.ok, report.violations
        detector = RaceDetector().feed_all(collector.events)
        assert detector.ok, "\n".join(r.describe() for r in detector.races)
        # Batching actually happened: some doorbells flushed several WQEs.
        ports = [qp.local_port for qp in cluster.compute_servers[0].qps.values()]
        assert any(p.wqes_posted > p.doorbells for p in ports)


# --------------------------------------------------------------------------- #
# RPC dedup cache sizing (RetryConfig.rpc_dedup_cache_entries)                 #
# --------------------------------------------------------------------------- #

class TestRpcDedupCacheLimit:
    def test_cache_bounded_by_retry_config(self):
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=2,
                seed=41,
                retry=RetryConfig(rpc_dedup_cache_entries=16),
            )
        )
        compute = cluster.new_compute_server()
        cluster.attach_faults(FaultPlan(seed=1))
        qp = compute.qp(0)
        for seq in range(50):
            qp.rpc_finish(seq, None, 0)
        # Bounded at the configured size, evicting oldest-first.
        assert len(qp._rpc_cache) == 16
        assert set(qp._rpc_cache) == set(range(34, 50))


# --------------------------------------------------------------------------- #
# the prefetch fan-out: one process per server group, one join                 #
# --------------------------------------------------------------------------- #

def _home(raw_ptr: int) -> int:
    return (raw_ptr >> 56) & 0x7F


@pytest.mark.parametrize("dropped", [(0,), (0, 1)])
def test_a_failed_group_fails_the_fan_out_once(dropped):
    """A group whose server drops every message fails the caller's join
    with its RetriesExhaustedError — once, however many groups fail — and
    the groups left running drain without an undefused failure."""
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=31))
    accessor = RemoteAccessor(cluster.new_compute_server(), cluster.config)
    raw_ptrs = [
        _plant_leaf(cluster, server_id, 8192 * (1 + k))[0]
        for k in range(2)
        for server_id in range(4)
    ]
    cluster.attach_faults(FaultPlan(seed=9, server_drop={s: 1.0 for s in dropped}))

    def scan():
        # Caught here, at the caller: not raised out of the kernel's loop.
        try:
            yield from accessor.read_nodes(raw_ptrs)
        except RetriesExhaustedError as exc:
            return exc

    caught = cluster.execute(scan())
    assert "doorbell batch of 2 verbs" in str(caught)
    cluster.sim.run()


def test_a_scan_fan_out_of_several_chains_per_group_keeps_pointer_order(monkeypatch):
    """A prefetch window of 16 over chains of at most 2: a fan-out spans
    three or more servers, its groups post several chains one after
    another, and every node comes back in ``raw_ptrs`` order, equal to
    ``read_node``'s."""
    config = ClusterConfig(
        num_memory_servers=4,
        seed=11,
        network=NetworkConfig(max_batch_wqes=2),
        tree=TreeConfig(head_node_interval=16, prefetch_window=16),
    )
    cluster = Cluster(config)
    dataset = generate_dataset(4_000, gap=8)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    fan_outs = []
    read_nodes = RemoteAccessor.read_nodes

    def recording(self, raw_ptrs):
        raw_ptrs = list(raw_ptrs)
        nodes = yield from read_nodes(self, raw_ptrs)
        fan_outs.append((self, raw_ptrs, nodes))
        return nodes

    monkeypatch.setattr(RemoteAccessor, "read_nodes", recording)
    assert cluster.execute(session.range_scan(0, dataset.key_space)) == dataset.pairs()
    monkeypatch.undo()
    wide = [
        raw_ptrs for _acc, raw_ptrs, _nodes in fan_outs
        if len({_home(raw) for raw in raw_ptrs}) >= 3
        and max(sum(_home(raw) == s for raw in raw_ptrs) for s in range(4)) > 2
    ]
    assert wide
    for accessor, raw_ptrs, nodes in fan_outs:
        alone = [cluster.execute(accessor.read_node(raw)) for raw in raw_ptrs]
        assert [(n.keys, n.values, n.version, n.right) for n in nodes] == [
            (n.keys, n.values, n.version, n.right) for n in alone
        ]


# --------------------------------------------------------------------------- #
# batched vs unbatched: identical results                                       #
# --------------------------------------------------------------------------- #

def test_index_results_identical_batched_vs_unbatched():
    dataset = generate_dataset(1_200, gap=8)

    def run(batched: bool):
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=4,
                seed=11,
                network=NetworkConfig(doorbell_batching=batched),
            )
        )
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        session = index.session(cluster.new_compute_server())
        out = []
        for i in (0, 37, 555, 1_199):
            out.append(cluster.execute(session.lookup(dataset.key_at(i))))
        low, high = dataset.key_at(100), dataset.key_at(400)
        out.append(cluster.execute(session.range_scan(low, high)))
        cluster.execute(session.insert(dataset.key_at(50) + 1, 777))
        out.append(cluster.execute(session.lookup(dataset.key_at(50) + 1)))
        return out

    assert run(batched=True) == run(batched=False)
