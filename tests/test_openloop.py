"""Open-loop arrivals.

Covers the tenant's Poisson rate (validation, and that a run offers it)
and :meth:`~repro.workloads.runner.WorkloadRunner.run_open` end to end —
determinism, offered/accepted/rejected accounting, SLO attainment,
per-tenant rejections under an admission policy, and operations on a
crashed compute server.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    AdmissionConfig,
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    ComputeCrash,
    FaultPlan,
)
from repro.config import CpuConfig, ObservabilityConfig
from repro.errors import ConfigurationError
from repro.workloads import (
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
)

READS = WorkloadSpec(name="reads", point_fraction=1.0)


class TestTenantRate:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="", workload=READS, rate_ops_per_s=1.0)
        # Non-finite values: an infinite rate made run_open spin forever,
        # a NaN one failed deep inside the simulator.
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="rate_ops_per_s"):
                TenantSpec(name="t", workload=READS, rate_ops_per_s=bad)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                TenantSpec(name="t", workload=READS, slo_p99_s=bad,
                           rate_ops_per_s=1.0)

    @pytest.mark.parametrize("rate", [50_000.0, 200_000.0])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_a_tenant_offers_its_rate(self, rate, seed):
        """Arrivals in the window are Poisson with mean rate * window: the
        count lies within four standard deviations of it."""
        measure_s = 0.004
        tenants = [
            TenantSpec(name="a", workload=READS, rate_ops_per_s=rate, sessions=4)
        ]
        _cluster, result = _open_loop_run(seed=seed, tenants=tenants, measure_s=measure_s)
        mean = rate * measure_s
        assert abs(result.tenants["a"].offered - mean) <= 4 * math.sqrt(mean)
        assert result.offered_ops == result.tenants["a"].offered


def _open_loop_run(seed=3, admission=None, tenants=None, measure_s=0.004):
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            memory_servers_per_machine=1,
            seed=17,
            cpu=CpuConfig(cores_per_server=2),
            admission=admission or AdmissionConfig(),
            observability=ObservabilityConfig(enabled=True),
        )
    )
    dataset = generate_dataset(2000, gap=4)
    index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
    if tenants is None:
        tenants = [
            TenantSpec(
                name="a",
                workload=READS,
                rate_ops_per_s=120_000.0,
                slo_p99_s=200e-6,
                sessions=4,
            ),
            TenantSpec(
                name="b",
                workload=WorkloadSpec(
                    name="mixed", point_fraction=0.9, insert_fraction=0.1
                ),
                rate_ops_per_s=120_000.0,
                sessions=4,
            ),
        ]
    result = WorkloadRunner(cluster, dataset).run_open(
        index, tenants, warmup_s=0.001, measure_s=measure_s, seed=seed
    )
    return cluster, result


def _fingerprint(result):
    lines = [
        repr(sorted(result.op_counts.items())),
        repr(sorted(result.errors.items())),
        f"offered={result.offered_ops} rejected={result.rejected_ops}",
    ]
    for name, outcome in sorted(result.tenants.items()):
        lines.append(
            f"{name}: off={outcome.offered} acc={outcome.accepted} "
            f"rej={outcome.rejected} err={outcome.errored} "
            + ",".join(f"{lat:.12e}" for lat in outcome.latencies)
        )
    return "\n".join(lines)


class TestOpenLoopRunner:
    """The open loop of :class:`WorkloadRunner` (``run_open``) end to end."""

    def test_identical_seeds_replay_identically(self):
        _cluster, first = _open_loop_run(seed=3)
        _cluster, second = _open_loop_run(seed=3)
        assert _fingerprint(first).encode() == _fingerprint(second).encode()

    def test_different_seeds_diverge(self):
        _cluster, first = _open_loop_run(seed=3)
        _cluster, second = _open_loop_run(seed=4)
        assert _fingerprint(first) != _fingerprint(second)

    def test_accounting_and_slo(self):
        _cluster, result = _open_loop_run()
        assert result.offered_ops > 0
        assert set(result.tenants) == {"a", "b"}
        for outcome in result.tenants.values():
            assert outcome.offered > 0
            assert outcome.accepted > 0
            # No admission policy: nothing is bounced.
            assert outcome.rejected == 0
        a = result.tenants["a"]
        assert a.slo_p99_s == 200e-6
        assert a.slo_attainment is not None
        assert result.slo_attainment == a.slo_attainment
        assert result.tenants["b"].slo_attainment is None
        assert result.accepted_ops == result.total_ops
        assert result.goodput == result.throughput

    def test_open_loop_offers_more_than_a_saturated_server_completes(self):
        tenants = [
            TenantSpec(
                name="hot",
                workload=READS,
                # Far past the 2x2-core service capacity: the generator
                # must not slow down just because server queues grow.
                rate_ops_per_s=4_000_000.0,
                sessions=8,
            )
        ]
        _cluster, result = _open_loop_run(tenants=tenants)
        assert result.offered_ops > result.accepted_ops * 1.5

    def test_rejections_surface_per_tenant(self):
        admission = AdmissionConfig(
            enabled=True,
            max_queue_depth=8,
            # b sends about 300 RPCs to each server in the window, far
            # past the 32-token burst plus 50 refilled tokens.
            tenant_rate_ops={"b": 10_000.0},
        )
        _cluster, result = _open_loop_run(admission=admission)
        assert result.tenants["b"].rejected > 0
        assert result.rejected_ops >= result.tenants["b"].rejected
        assert result.tenants["a"].rejected == 0

    def test_slo_attainment_flows_into_namscope(self):
        _cluster, result = _open_loop_run()
        gauges = {
            m["labels"]["tenant"]: m["value"]
            for m in result.observability["metrics"]
            if m["name"] == "nam_slo_attainment"
        }
        assert gauges == {"a": result.tenants["a"].slo_attainment}

    def test_duplicate_tenant_names_rejected(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
        dataset = generate_dataset(500, gap=4)
        index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
        runner = WorkloadRunner(cluster, dataset)
        tenant = TenantSpec(
            name="dup", workload=READS,
            rate_ops_per_s=1000.0,
        )
        with pytest.raises(ConfigurationError):
            runner.run_open(index, [tenant, tenant])
        with pytest.raises(ConfigurationError):
            runner.run_open(index, [])

    @pytest.mark.parametrize(
        "warmup_s, measure_s, name",
        [(0.0005, 0.0, "measure_s"), (0.0005, -0.002, "measure_s"),
         (-0.0005, 0.002, "warmup_s")],
    )
    def test_timed_window_must_be_measurable(self, warmup_s, measure_s, name):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
        dataset = generate_dataset(500, gap=4)
        index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
        tenant = TenantSpec(
            name="a", workload=READS,
            rate_ops_per_s=1000.0,
        )
        with pytest.raises(ConfigurationError, match=name):
            WorkloadRunner(cluster, dataset).run_open(
                index, [tenant], warmup_s=warmup_s, measure_s=measure_s
            )
        assert not cluster.compute_servers  # refused before any client spawned

    def test_a_crashed_compute_server_completes_no_operation(self):
        """Every arrival is a process on its session's compute server: the
        crash kills the ones in flight, and an arrival after it is killed
        at spawn — offered, never completed."""
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=17))
        dataset = generate_dataset(2000, gap=4)
        index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
        injector = cluster.attach_faults(
            FaultPlan(seed=1, compute_crashes=(ComputeCrash(0, at_s=1e-3),))
        )
        tenant = TenantSpec(
            name="a", workload=READS,
            rate_ops_per_s=200_000.0, sessions=4,
        )
        # All four sessions share compute server 0; the window opens 1 ms
        # after it crashed.
        result = WorkloadRunner(cluster, dataset).run_open(
            index, [tenant], warmup_s=2e-3, measure_s=3e-3, seed=1
        )
        outcome = result.tenants["a"]
        assert outcome.offered > 0
        assert result.total_ops == outcome.accepted == outcome.errored == 0
        assert injector.stats["killed_processes"] > outcome.offered
