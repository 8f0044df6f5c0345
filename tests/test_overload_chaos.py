"""Multi-tenant flash crowd under chaos: faults + failover + admission.

The ISSUE's combined acceptance scenario: an open-loop flash crowd slams
an admission-controlled hybrid cluster while the fault injector drops
and delays messages and crashes a replicated memory server mid-window.
The B-link structural verifier (:func:`repro.index.verify.verify_index`)
is the oracle, and the cross-tenant contract — the flood never drags the
interactive tenant's SLO down — is asserted directly against the
per-tenant outcome records.

Runs under ``pytest --namsan`` in CI (the overload chaos matrix).
"""

from __future__ import annotations

import pytest

from repro import (
    AdmissionConfig,
    Cluster,
    ClusterConfig,
    FaultPlan,
    HybridIndex,
    ServerCrash,
    verify_index,
)
from repro.config import CpuConfig, ObservabilityConfig
from repro.workloads import (
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.ConfigurationWarning"
)

PLAN = FaultPlan(
    seed=61,
    drop_probability=0.02,
    delay_probability=0.05,
    delay_s=20e-6,
    duplicate_probability=0.02,
    server_crashes=(ServerCrash(1, at_s=0.002, down_for_s=0.001),),
)

INTERACTIVE_SLO_S = 500e-6


def _tenants():
    return [
        TenantSpec(
            name="interactive",
            workload=WorkloadSpec(name="reads", point_fraction=1.0),
            rate_ops_per_s=40_000.0,
            slo_p99_s=INTERACTIVE_SLO_S,
            max_op_retries=2,
            sessions=8,
        ),
        TenantSpec(
            name="flood",
            workload=WorkloadSpec(
                name="mixed", point_fraction=0.9, insert_fraction=0.1
            ),
            rate_ops_per_s=1_500_000.0,
            sessions=16,
        ),
    ]


def _chaos_run(admission, seed=19):
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            memory_servers_per_machine=1,
            replication_factor=2,
            seed=43,
            cpu=CpuConfig(cores_per_server=2),
            admission=admission,
            observability=ObservabilityConfig(enabled=True),
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = HybridIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(PLAN)
    result = WorkloadRunner(cluster, dataset).run_open(
        index, _tenants(), warmup_s=0.001, measure_s=0.004, seed=seed
    )
    injector.quiesce()
    return cluster, index, injector, result


ADMISSION = AdmissionConfig(
    enabled=True,
    max_queue_depth=8,
    tenant_rate_ops={"flood": 30_000.0},
    bulkhead_workers={"flood": 1},
)


class TestFlashCrowdChaos:
    def test_admission_survives_crowd_plus_crash(self):
        cluster, index, injector, result = _chaos_run(ADMISSION)

        # The chaos actually happened: messages dropped, a replicated
        # server crashed and failed over, the flood got bounced.
        assert injector.stats["server_crashes"] == 1
        assert injector.stats["drops"] > 0
        flood = result.tenants["flood"]
        assert flood.rejected > 0

        # The structural oracle: B-link invariants and replica equality
        # hold after the crowd, the crash, and the drain.
        report = verify_index(cluster, index)
        assert report.ok, report

        # Cross-tenant contract: the interactive tenant rode out both the
        # flash crowd and the failover inside its SLO, serving nearly all
        # of its offered arrivals.
        interactive = result.tenants["interactive"]
        assert interactive.accepted > 0
        assert interactive.slo_attainment is not None
        assert interactive.slo_attainment >= 0.99, interactive
        assert interactive.accepted >= 0.8 * interactive.offered, interactive
        # Faults may cost it some errored ops, but never rejections — the
        # flood is the only rate-limited, bulkheaded tenant.
        assert interactive.rejected == 0

    def test_uncontrolled_crowd_degrades_the_interactive_tenant(self):
        # The negative control: same crowd, same faults, no admission.
        # Without bulkheads the flood's queueing delay exhausts the
        # interactive tenant's verb retries (timeouts) — most arrivals end
        # up errored instead of served. The SLO is violated through starvation, not through
        # the (survivor-biased) latency of the few ops that got through.
        cluster, index, injector, result = _chaos_run(AdmissionConfig())
        assert injector.stats["server_crashes"] == 1
        report = verify_index(cluster, index)
        assert report.ok, report
        interactive = result.tenants["interactive"]
        assert interactive.accepted < 0.5 * interactive.offered, interactive
        assert interactive.errored > 0
        # Nothing was rejected — the damage is pure queueing delay.
        assert result.rejected_ops == 0

    def test_chaos_run_replays_byte_identically(self):
        def fingerprint():
            _cluster, _index, injector, result = _chaos_run(ADMISSION)
            lines = [repr(sorted(injector.stats.items()))]
            for name, outcome in sorted(result.tenants.items()):
                lines.append(
                    f"{name}: off={outcome.offered} acc={outcome.accepted} "
                    f"rej={outcome.rejected} err={outcome.errored} "
                    + ",".join(f"{lat:.12e}" for lat in outcome.latencies)
                )
            return "\n".join(lines)

        assert fingerprint().encode() == fingerprint().encode()
