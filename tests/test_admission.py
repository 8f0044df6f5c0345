"""Server-side admission control: bounded queues, buckets, bulkheads.

Three layers get pinned here: the :class:`~repro.sim.Store` capacity
semantics the queues are built on, the deterministic
:class:`~repro.nam.admission.TokenBucket`, and the end-to-end behavior
of an admission-enabled cluster — typed rejections at the client,
bulkhead isolation between tenants, and the ISSUE's identity contract:
with admission disabled (the default config) nothing changes, down to
the byte.
"""

from __future__ import annotations

import pytest

from repro import (
    AdmissionConfig,
    AdmissionRejectedError,
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    ThrottledError,
)
from repro.config import CpuConfig, ObservabilityConfig
from repro.errors import ConfigurationError, SimulationError
from repro.nam.admission import (
    SHARED_POOL,
    TENANT_BURST_OPS,
    AdmissionController,
    TokenBucket,
)
from repro.sim import Simulator, Store
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

SPEC = WorkloadSpec(
    name="adm-mix", point_fraction=0.8, insert_fraction=0.2
)


class TestBoundedStore:
    def test_try_put_refuses_at_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put("a") and store.try_put("b")
        assert not store.try_put("c")
        assert len(store) == 2

    def test_put_raises_at_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put("a")
        with pytest.raises(SimulationError):
            store.put("b")

    def test_waiting_getter_bypasses_capacity(self):
        # A handoff to a blocked consumer never occupies queue space.
        sim = Simulator()
        store = Store(sim, capacity=1)
        got = []

        def getter():
            got.append((yield store.get()))

        sim.process(getter())
        sim.run()  # getter is now parked on the empty store
        store.put("x")  # handed straight to the getter
        assert store.try_put("y")  # capacity still free for one item
        assert not store.try_put("z")
        sim.run()
        assert got == ["x"]

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)

    def test_unbounded_store_never_refuses(self):
        sim = Simulator()
        store = Store(sim)
        for item in range(1000):
            assert store.try_put(item)


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 0.1s at 10 tokens/s earns exactly one more.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        for _ in range(3):
            assert bucket.try_take(0.0)
        # A long idle period refills to burst, never beyond.
        for _ in range(3):
            assert bucket.try_take(10.0)
        assert not bucket.try_take(10.0)

    def test_deterministic_schedule(self):
        def schedule():
            bucket = TokenBucket(rate=7.0, burst=1.5, now=0.0)
            return [
                bucket.try_take(t / 100.0) for t in range(50)
            ]

        assert schedule() == schedule()


class TestAdmissionConfigValidation:
    def test_bulkheads_must_leave_a_shared_core(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                num_memory_servers=2,
                cpu=CpuConfig(cores_per_server=2),
                admission=AdmissionConfig(
                    enabled=True, bulkhead_workers={"a": 1, "b": 1}
                ),
            )

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_queue_depth=0)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="tenant_rate_ops"):
                AdmissionConfig(tenant_rate_ops={"t": bad})
        with pytest.raises(ConfigurationError):
            AdmissionConfig(bulkhead_workers={"t": 0})


def _admission_cluster(**admission_kwargs):
    defaults = dict(enabled=True, max_queue_depth=4)
    defaults.update(admission_kwargs)
    return Cluster(
        ClusterConfig(
            num_memory_servers=2,
            memory_servers_per_machine=1,
            seed=11,
            cpu=CpuConfig(cores_per_server=2),
            admission=AdmissionConfig(**defaults),
            observability=ObservabilityConfig(enabled=True),
        )
    )


def _index_and_session(cluster, tenant=None):
    dataset = generate_dataset(400, gap=4)
    index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    session.tenant = tenant
    return dataset, index, session


class TestRateLimit:
    def test_flood_tenant_gets_throttled_error(self):
        cluster = _admission_cluster(tenant_rate_ops={"flood": 1.0})
        dataset, _index, session = _index_and_session(cluster, tenant="flood")
        key = dataset.key_at(0)
        for _ in range(int(TENANT_BURST_OPS)):
            assert cluster.execute(session.lookup(key)) is not None
        # The burst is spent and 1 op/s refills nothing in simulated
        # microseconds: the very next call bounces.
        with pytest.raises(ThrottledError):
            cluster.execute(session.lookup(key))
        rejected = sum(
            s.admission.rejected["rate-limit"]
            for s in cluster.memory_servers
        )
        assert rejected == 1

    def test_anonymous_sessions_are_never_rate_limited(self):
        cluster = _admission_cluster(tenant_rate_ops={"flood": 1.0})
        dataset, _index, session = _index_and_session(cluster, tenant=None)
        key = dataset.key_at(0)
        # Past the burst a limited tenant would have.
        for _ in range(int(TENANT_BURST_OPS) + 5):
            assert cluster.execute(session.lookup(key)) is not None

    def test_throttled_is_an_admission_rejection(self):
        # Clients that only catch the base class still catch throttling.
        assert issubclass(ThrottledError, AdmissionRejectedError)


class TestQueueBound:
    def test_concurrent_burst_overflows_bounded_queue(self):
        cluster = _admission_cluster(max_queue_depth=1)
        dataset, _index, session = _index_and_session(cluster, tenant="t")
        outcomes = []

        def one(key):
            try:
                yield from session.lookup(key)
                outcomes.append("ok")
            except AdmissionRejectedError:
                outcomes.append("rejected")

        # 16 simultaneous arrivals vs 2 workers + 1 queue slot per server.
        for i in range(16):
            cluster.spawn(one(dataset.key_at(i)))
        cluster.sim.run()
        assert outcomes.count("rejected") > 0
        # Two parked workers take a handoff each, one envelope holds the
        # queue slot; everything else in the simultaneous burst bounces.
        assert outcomes.count("ok") >= 3
        total = sum(
            s.admission.rejected["queue-full"] for s in cluster.memory_servers
        )
        assert total == outcomes.count("rejected")

    def test_rejections_are_counted_in_namscope(self):
        cluster = _admission_cluster(max_queue_depth=1)
        dataset, _index, session = _index_and_session(cluster, tenant="t")

        def one(key):
            try:
                yield from session.lookup(key)
            except AdmissionRejectedError:
                pass

        for i in range(16):
            cluster.spawn(one(dataset.key_at(i)))
        cluster.sim.run()
        snap = cluster.obs.snapshot()
        rejected = sum(
            m["value"]
            for m in snap["metrics"]
            if m["name"] == "nam_admission_rejected_total"
        )
        accepted = sum(
            m["value"]
            for m in snap["metrics"]
            if m["name"] == "nam_admission_accepted_total"
        )
        assert rejected > 0 and accepted > 0


class TestBulkheads:
    def test_flooding_tenant_cannot_starve_the_shared_pool(self):
        cluster = _admission_cluster(
            max_queue_depth=2, bulkhead_workers={"flood": 1}
        )
        dataset, index, flood = _index_and_session(cluster, tenant="flood")
        polite = index.session(cluster.new_compute_server())
        polite.tenant = "polite"
        flood_out, polite_out = [], []

        def flood_op(key):
            try:
                yield from flood.lookup(key)
                flood_out.append("ok")
            except AdmissionRejectedError:
                flood_out.append("rejected")

        def polite_op(key, delay_s):
            # Paced like an interactive client, while the flood bursts.
            yield cluster.sim.timeout(delay_s)
            yield from polite.lookup(key)
            polite_out.append("ok")

        for i in range(32):
            cluster.spawn(flood_op(dataset.key_at(i)))
        for i in range(4):
            cluster.spawn(polite_op(dataset.key_at(100 + i), i * 50e-6))
        cluster.sim.run()
        # The flood overflowed its own bulkhead queue; every polite op
        # went through the shared pool untouched.
        assert "rejected" in flood_out
        assert polite_out == ["ok"] * 4

    def test_pool_routing(self):
        cluster = _admission_cluster(bulkhead_workers={"flood": 1})
        server = cluster.memory_servers[0]
        controller: AdmissionController = server.admission
        assert controller.pool_of("flood") == "flood"
        assert controller.pool_of("other") == SHARED_POOL
        assert controller.pool_of(None) == SHARED_POOL
        assert server.rpc_queue("flood") is not server.rpc_queue(SHARED_POOL)
        assert server.rpc_queue(SHARED_POOL) is server.srq


def _closed_loop_fingerprint(config):
    cluster = Cluster(config)
    dataset = generate_dataset(400, gap=4)
    index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, SPEC, num_clients=6, warmup_s=0.0005, measure_s=0.003, seed=5
    )
    return "\n".join(
        [
            repr(sorted(result.op_counts.items())),
            repr(
                {
                    op: [f"{s:.12e}" for s in samples]
                    for op, samples in sorted(result.latencies.items())
                }
            ),
            repr(sorted(result.network.items())),
            f"final_now={cluster.now:.12e}",
        ]
    )


class TestIdentityContract:
    def test_permissive_admission_is_byte_identical_to_disabled(self):
        # An enabled controller with no rate limits, no bulkheads, and a
        # queue deeper than the run can fill must not perturb a single
        # event: admission decisions are zero-sim-time bookkeeping.
        base = ClusterConfig(num_memory_servers=2, seed=23)
        permissive = ClusterConfig(
            num_memory_servers=2,
            seed=23,
            admission=AdmissionConfig(enabled=True, max_queue_depth=1_000_000),
        )
        assert _closed_loop_fingerprint(base).encode() == (
            _closed_loop_fingerprint(permissive).encode()
        )

    def test_disabled_config_does_no_admission_work(self, monkeypatch):
        # PR-5 style negative proof: if the default config ever touched
        # the admission layer, this poisoned constructor would blow up.
        def boom(self, *args, **kwargs):
            raise AssertionError("admission work on a disabled config")

        monkeypatch.setattr(AdmissionController, "__init__", boom)
        monkeypatch.setattr(AdmissionController, "submit", boom)
        fingerprint = _closed_loop_fingerprint(
            ClusterConfig(num_memory_servers=2, seed=23)
        )
        assert "point" in fingerprint

    def test_disabled_servers_have_unbounded_queues(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
        for server in cluster.memory_servers:
            assert server.admission is None
            assert server.srq.capacity is None
