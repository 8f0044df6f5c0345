"""Chaos tests: workloads under seeded message faults and server crashes.

Every test here drives real index sessions through the fault-injecting
fabric. The correctness contract under faults is:

* every operation either completes with a correct result or raises a
  typed :class:`~repro.errors.TimeoutError_` subclass — never a silent
  wrong answer, never an untyped exception;
* the tree structure is never corrupted: post-chaos full scans are sorted
  and :meth:`~repro.btree.algorithm.BLinkTree.validate` passes;
* with the default (no-op) plan attached, behavior is indistinguishable
  from a fault-free run.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    ComputeCrash,
    FaultPlan,
    FineGrainedIndex,
    HybridIndex,
    RetriesExhaustedError,
    RetryConfig,
    ServerCrash,
    TimeoutError_,
    check_tree,
    verify_index,
)
from repro.btree import key_columns
from repro.errors import ConfigurationError
from repro.nam.rpc import RPC_HEADER_BYTES, TreeCall
from repro.rdma.verbs import Verb
from repro.workloads import Op, WorkloadRunner, WorkloadSpec, check_history, generate_dataset

MIXED = WorkloadSpec(
    name="chaos-mix",
    point_fraction=0.5,
    range_fraction=0.1,
    insert_fraction=0.3,
    delete_fraction=0.1,
    selectivity=0.005,
)


def _build(design, cluster, pairs, key_space):
    if design == "coarse-grained":
        return CoarseGrainedIndex.build(cluster, "idx", *key_columns(pairs), key_space=key_space)
    if design == "fine-grained":
        return FineGrainedIndex.build(cluster, "idx", *key_columns(pairs))
    return HybridIndex.build(cluster, "idx", *key_columns(pairs), key_space=key_space)


def _check_all_trees(design, cluster, index):
    """Check every tree of the index; returns their live entry count."""
    compute = cluster.new_compute_server()
    if design == "fine-grained":
        trees = [index.tree_for(compute)]
    elif design == "coarse-grained":
        trees = [
            index.local_tree(sid) for sid in range(cluster.num_memory_servers)
        ]
    else:
        trees = [
            index.gc_tree(compute, sid)
            for sid in range(cluster.num_memory_servers)
        ]
    total = 0
    for tree in trees:
        report = cluster.execute(check_tree(tree))
        assert report.ok, report.violations
        total += report.entries
    return total


class TestPlanValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(verb_drop={Verb.READ: -0.1})
        with pytest.raises(ConfigurationError):
            ServerCrash(0, at_s=0.001, down_for_s=0.0)
        with pytest.raises(ConfigurationError):
            ComputeCrash(0, at_s=-1.0)

    def test_noop_detection(self):
        assert FaultPlan().is_noop()
        assert not FaultPlan(drop_probability=0.1).is_noop()
        assert not FaultPlan(
            server_crashes=(ServerCrash(0, at_s=0.1, down_for_s=0.1),)
        ).is_noop()

    def test_single_injector_per_cluster(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
        cluster.attach_faults(FaultPlan())
        with pytest.raises(ConfigurationError):
            cluster.attach_faults(FaultPlan())
        cluster.detach_faults()
        cluster.attach_faults(FaultPlan())


class TestNoopPlan:
    """A no-op plan must not change any observable result."""

    def test_results_identical_with_noop_injector(self):
        outcomes = []
        for attach in (False, True):
            cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=3))
            dataset = generate_dataset(300, gap=4)
            index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
            if attach:
                injector = cluster.attach_faults(FaultPlan())
            session = index.session(cluster.new_compute_server())
            results = []
            for i in range(40):
                key = dataset.key_at(i * 7 % dataset.num_keys)
                results.append(sorted(cluster.execute(session.lookup(key))))
                cluster.execute(session.insert(key + 1, 9000 + i))
            results.append(cluster.execute(session.range_scan(0, 160)))
            outcomes.append(results)
            if attach:
                assert all(
                    count == 0
                    for name, count in injector.stats.items()
                    if name != "retries"
                )
        assert outcomes[0] == outcomes[1]

    def test_detaching_with_an_rpc_in_its_handler_lets_it_finish(self):
        # The worker dequeued under the injector and finishes without it:
        # the dedup bookkeeping must not reach for the fabric's (now None).
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=3))
        dataset = generate_dataset(300, gap=4)
        index = CoarseGrainedIndex.build(
            cluster, "idx", *dataset.columns(), key_space=dataset.key_space
        )
        cluster.attach_faults(FaultPlan())
        session = index.session(cluster.new_compute_server())
        lookup = cluster.spawn(session.lookup(dataset.key_at(7)))
        cluster.sim.run(until=cluster.now + 3e-6)
        servers = cluster.memory_servers
        # Delivered (one worker is busy), not answered.
        assert not lookup.triggered and not any(s.rpcs_handled for s in servers)
        cluster.detach_faults()
        assert cluster.sim.run_until_complete(lookup) == [7]
        assert sum(s.rpcs_handled for s in servers) == 1


class TestMessageFaults:
    def test_total_read_drop_raises_typed_error(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=5))
        dataset = generate_dataset(200, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(FaultPlan(verb_drop={Verb.READ: 1.0}))
        session = index.session(cluster.new_compute_server())
        with pytest.raises(RetriesExhaustedError):
            cluster.execute(session.lookup(dataset.key_at(10)))
        retry = cluster.config.retry
        assert injector.stats["drops"] == retry.max_attempts
        assert injector.stats["retries"] == retry.max_attempts - 1
        assert isinstance(RetriesExhaustedError("x"), TimeoutError_)

    def test_server_drop_overrides_verb_drop(self):
        # server_drop has the highest precedence: pinning both servers to
        # zero makes a READ-dropping plan harmless.
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=5))
        dataset = generate_dataset(200, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        cluster.attach_faults(
            FaultPlan(verb_drop={Verb.READ: 1.0}, server_drop={0: 0.0, 1: 0.0})
        )
        session = index.session(cluster.new_compute_server())
        assert cluster.execute(session.lookup(dataset.key_at(10))) == [10]

    def test_duplicates_are_suppressed(self):
        # Duplicate every message: one-sided effects still apply once and
        # RPC handlers run once (sequence-number dedup), so results are
        # correct for both access paths.
        for design in ("fine-grained", "coarse-grained"):
            cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=6))
            dataset = generate_dataset(200, gap=4)
            index = _build(design, cluster, dataset.pairs(), dataset.key_space)
            injector = cluster.attach_faults(FaultPlan(duplicate_probability=1.0))
            session = index.session(cluster.new_compute_server())
            cluster.execute(session.insert(3, 777))
            assert sorted(cluster.execute(session.lookup(3))) == [777]
            assert cluster.execute(session.lookup(dataset.key_at(5))) == [5]
            assert injector.stats["duplicates"] > 0

    def test_delays_slow_but_do_not_break(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=7))
        dataset = generate_dataset(200, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        session = index.session(cluster.new_compute_server())
        t0 = cluster.now
        cluster.execute(session.lookup(dataset.key_at(9)))
        clean = cluster.now - t0
        injector = cluster.attach_faults(
            FaultPlan(delay_probability=1.0, delay_s=50e-6)
        )
        t0 = cluster.now
        assert cluster.execute(session.lookup(dataset.key_at(9))) == [9]
        assert cluster.now - t0 > clean
        assert injector.stats["delays"] > 0

    def test_a_crash_inside_a_sends_delay_spares_the_request(self):
        # Every message is delayed 10 us. The server crashes and restarts
        # inside the request's delay, after its arrival verdict was drawn.
        # The envelope takes the crash epoch when the delay ends, so the
        # restarted server handles it and the call is answered on its first
        # attempt. An epoch taken with the verdict would predate the crash,
        # and the worker would drop the request as queued before it.
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=3))
        compute = cluster.new_compute_server()
        server = cluster.memory_servers[0]
        runs = []

        def handler(srv, call):
            runs.append(cluster.now)
            yield srv.cpu(1e-6)
            return True, RPC_HEADER_BYTES

        server.register_handler("lookup", handler)
        injector = cluster.attach_faults(FaultPlan(delay_probability=1.0, delay_s=10e-6))
        request = TreeCall("lookup", "idx", 0, (1,))
        call = cluster.spawn(compute.qp(0).call(request, request.wire_bytes))
        while not injector.stats["delays"]:  # the request leg is in flight
            cluster.sim.run(until=cluster.now + 0.25e-6)
        started = cluster.now
        injector.crash_memory_server(0)
        cluster.sim.run(until=started + 2e-6)
        injector.restart_memory_server(0)
        assert not runs and cluster.now - started < 10e-6  # still inside the delay
        assert cluster.sim.run_until_complete(call) is True
        assert len(runs) == 1 and runs[0] - started >= 9e-6
        stats = injector.stats
        assert stats["server_crashes"] == stats["server_restarts"] == 1
        assert stats["retries"] == 0 and stats["rpc_replays"] == 0
        assert stats["delays"] == 2  # the request's and the response's


class TestComputeCrash:
    def test_registered_processes_are_killed(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=8))
        injector = cluster.attach_faults(FaultPlan())
        log = []

        def looper():
            while True:
                yield cluster.sim.timeout(1e-6)
                log.append(cluster.now)

        proc = cluster.spawn(looper())
        injector.register_client(0, proc)
        cluster.run(until=5e-6)
        injector.kill_compute_server(0)
        seen = len(log)
        cluster.run(until=50e-6)
        assert len(log) == seen  # no progress after the kill
        assert proc.triggered  # joins on the dead process complete
        assert injector.stats["compute_crashes"] == 1
        assert injector.stats["killed_processes"] == 1
        # Registering onto an already-dead server kills immediately.
        late = cluster.spawn(looper())
        injector.register_client(0, late)
        cluster.run(until=60e-6)
        assert not log[seen:]

    def test_scheduled_compute_crash(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=8))
        injector = cluster.attach_faults(
            FaultPlan(compute_crashes=(ComputeCrash(0, at_s=3e-6),))
        )

        def looper():
            while True:
                yield cluster.sim.timeout(1e-6)

        proc = cluster.spawn(looper())
        injector.register_client(0, proc)
        cluster.run(until=10e-6)
        assert injector.compute_server_down(0)
        assert proc.triggered


@pytest.mark.parametrize(
    "design", ["coarse-grained", "fine-grained", "hybrid"]
)
def test_chaos_workload_never_corrupts_tree(design):
    """Mixed YCSB workload under drops, delays, duplicates and a
    mid-workload memory-server crash/restart, on every design.

    Operations may fail with typed errors (counted by the runner), but the
    surviving structure must validate and scans must stay sorted.
    """
    cluster = Cluster(
        ClusterConfig(num_memory_servers=2, clients_per_compute_server=8, seed=21)
    )
    dataset = generate_dataset(600, gap=4)
    index = _build(design, cluster, dataset.pairs(), dataset.key_space)
    injector = cluster.attach_faults(
        FaultPlan(
            seed=13,
            drop_probability=0.02,
            delay_probability=0.05,
            delay_s=30e-6,
            duplicate_probability=0.02,
            server_crashes=(ServerCrash(1, at_s=0.004, down_for_s=0.002),),
        )
    )
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, MIXED, num_clients=8, warmup_s=0.001, measure_s=0.009, seed=17
    )
    assert result.total_ops > 0
    assert injector.stats["drops"] > 0
    assert injector.stats["server_crashes"] == 1
    assert injector.stats["server_restarts"] == 1
    # Failed operations surface as typed errors, never as wrong results.
    assert all(name == "RetriesExhaustedError" for name in result.errors)

    injector.quiesce()
    session = index.session(cluster.new_compute_server())
    scan = cluster.execute(session.range_scan(0, dataset.key_space * 2))
    keys = [key for key, _value in scan]
    assert keys == sorted(keys)
    assert _check_all_trees(design, cluster, index) > 0
    report = verify_index(cluster, index)
    assert report.ok, report.violations


def test_acceptance_drop_crash_scan_matches_oracle():
    """The headline chaos scenario: 5% message drop plus a memory-server
    crash/restart mid-workload on the fine-grained index.

    Clients retry failed operations until success. Inserts use unique keys
    and values; updates are partitioned per client; there are no deletes.
    Every attempt is one operation of the history, so an attempt that timed
    out took effect zero or one times (a retried insert whose first attempt
    silently succeeded may appear twice in the multimap). After quiescing
    the injector, the history and a full scan must be linearizable.
    """
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=31))
    dataset = generate_dataset(1_000, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(
        FaultPlan(
            seed=42,
            drop_probability=0.05,
            server_crashes=(ServerCrash(2, at_s=0.002, down_for_s=0.0015),),
        )
    )

    history = []
    num_clients = 8
    ops_per_client = 260
    progress = []

    def client(cid):
        session = index.session(cluster.new_compute_server())

        def persist(method, *args):
            # Retry the whole operation until one attempt completes.
            while True:
                op = Op(cid, method, args, cluster.now)
                history.append(op)
                try:
                    op.result = yield from getattr(session, method)(*args)
                except TimeoutError_ as exc:
                    op.result = exc
                op.responded_at = cluster.now
                if not isinstance(op.result, TimeoutError_):
                    return

        for i in range(ops_per_client):
            kind = i % 3
            if kind == 0:
                key = dataset.key_space + cid * 100_000 + i
                yield from persist("insert", key, cid * 1_000_000 + i)
            elif kind == 1:
                # Each client updates only its own disjoint slice of the
                # original keys.
                slice_size = dataset.num_keys // num_clients
                key = dataset.key_at(cid * slice_size + (i % slice_size))
                yield from persist("update", key, cid * 1_000_000 + 500_000 + i)
            else:
                key = dataset.key_at((cid * 37 + i) % dataset.num_keys)
                yield from persist("lookup", key)
            progress.append(cluster.now)

    procs = [cluster.spawn(client(cid)) for cid in range(num_clients)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))

    # The crash really happened mid-workload, and messages really dropped.
    assert injector.stats["server_crashes"] == 1
    assert injector.stats["server_restarts"] == 1
    assert injector.stats["drops"] > 50
    assert max(progress) > 0.0035

    injector.quiesce()
    verifier = index.session(cluster.new_compute_server())
    scan = cluster.execute(
        verifier.range_scan(0, dataset.key_space + num_clients * 100_000 + 1)
    )
    assert check_history(history, dataset.pairs(), scan) == []
    keys = len({key for key, _ in scan})
    report = cluster.execute(
        check_tree(index.tree_for(cluster.new_compute_server()))
    )
    assert report.ok, report.violations
    assert report.entries >= keys
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    assert report.entries >= keys


def test_retry_knobs_come_from_config():
    retry = RetryConfig(
        max_attempts=2, timeout_s=30e-6, base_delay_s=10e-6,
        backoff_multiplier=3.0, jitter_fraction=0.0,
    )
    cluster = Cluster(
        ClusterConfig(num_memory_servers=2, seed=9, retry=retry)
    )
    dataset = generate_dataset(200, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(FaultPlan(drop_probability=1.0))
    session = index.session(cluster.new_compute_server())
    with pytest.raises(RetriesExhaustedError):
        cluster.execute(session.lookup(dataset.key_at(0)))
    assert injector.stats["retries"] == 1  # max_attempts - 1
    assert injector.backoff_delay(0) == pytest.approx(10e-6)
    assert injector.backoff_delay(1) == pytest.approx(30e-6)


def test_retry_config_validation():
    with pytest.raises(ConfigurationError):
        RetryConfig(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryConfig(timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        RetryConfig(backoff_multiplier=0.5)
    with pytest.raises(ConfigurationError):
        RetryConfig(jitter_fraction=1.0)
    with pytest.raises(ConfigurationError):
        RetryConfig(lock_lease_s=0.0)
