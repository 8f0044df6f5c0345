"""Determinism regression: a fault schedule replays byte-identically.

Every probabilistic decision the fault injector makes is drawn from one
RNG seeded by the plan, in simulation order — so two fresh clusters given
the same (plan seed, workload seed) pair must produce identical traces,
metrics and fault statistics, byte for byte. This is what makes chaos
failures debuggable: any failing schedule can be replayed exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import (
    AdmissionConfig,
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FaultPlan,
    FineGrainedIndex,
    ServerCrash,
    VerbTracer,
)
from repro.config import CpuConfig, ObservabilityConfig
from repro.experiments.common import build_index
from repro.workloads import (
    OP_TYPES,
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
    workload_c,
    workload_d,
)

SPEC = WorkloadSpec(
    name="det-mix",
    point_fraction=0.6,
    range_fraction=0.1,
    insert_fraction=0.2,
    delete_fraction=0.1,
    selectivity=0.005,
)

PLAN = FaultPlan(
    seed=97,
    drop_probability=0.03,
    delay_probability=0.08,
    delay_s=25e-6,
    duplicate_probability=0.03,
    server_crashes=(ServerCrash(1, at_s=0.002, down_for_s=0.001),),
)


def _chaos_run():
    """One complete chaos run on a fresh cluster; returns its full
    observable output serialized to a string."""
    cluster = Cluster(
        ClusterConfig(num_memory_servers=2, clients_per_compute_server=6, seed=23)
    )
    dataset = generate_dataset(400, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(PLAN)
    runner = WorkloadRunner(cluster, dataset)
    with VerbTracer(cluster) as tracer:
        result = runner.run(
            index, SPEC, num_clients=6, warmup_s=0.0005, measure_s=0.004,
            seed=29,
        )
    injector.quiesce()
    session = index.session(cluster.new_compute_server())
    scan = cluster.execute(session.range_scan(0, dataset.key_space * 2))
    lines = [
        repr(sorted(result.op_counts.items())),
        repr(sorted(result.errors.items())),
        repr({op: [f"{s:.12e}" for s in samples]
              for op, samples in sorted(result.latencies.items())}),
        repr(sorted(result.network.items())),
        repr(sorted(injector.stats.items())),
        repr(scan),
        f"final_now={cluster.now:.12e}",
    ]
    for record in tracer.records:
        lines.append(
            f"{record.verb.value} s={record.server_id} b={record.payload_bytes} "
            f"t0={record.started_at:.12e} t1={record.finished_at:.12e}"
        )
    return "\n".join(lines)


def test_same_schedule_replays_byte_identically():
    first = _chaos_run()
    second = _chaos_run()
    assert first.encode() == second.encode()
    # The run actually exercised the fault machinery (guards against the
    # test silently degenerating into a happy-path comparison).
    assert "('drops', 0)" not in first
    assert "('server_crashes', 1)" in first


#: Metric families that record an open-loop run's rejection and retry
#: schedule.
_REJECTION_AND_RETRY_METRICS = (
    "nam_admission_rejected_total",
    "nam_verb_retries_total",
)

OPEN_LOOP_PLAN = FaultPlan(
    seed=53,
    drop_probability=0.04,
    delay_probability=0.06,
    delay_s=20e-6,
    duplicate_probability=0.02,
)


def _open_loop_chaos_run():
    """One open-loop run exercising both retry paths — verb-layer
    retries (dropped messages) and application-level retries with linear
    backoff (admission rejections) — serialized to a string."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            memory_servers_per_machine=1,
            seed=31,
            cpu=CpuConfig(cores_per_server=2),
            admission=AdmissionConfig(
                enabled=True,
                max_queue_depth=8,
                tenant_rate_ops={"greedy": 20_000.0},
            ),
            observability=ObservabilityConfig(enabled=True),
        )
    )
    dataset = generate_dataset(400, gap=4)
    index = CoarseGrainedIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(OPEN_LOOP_PLAN)
    tenants = [
        TenantSpec(
            name="greedy",
            workload=WorkloadSpec(name="reads", point_fraction=1.0),
            rate_ops_per_s=400_000.0,
            max_op_retries=2,
            sessions=8,
        ),
    ]
    result = WorkloadRunner(cluster, dataset).run_open(
        index, tenants, warmup_s=0.0005, measure_s=0.004, seed=41
    )
    injector.quiesce()
    lines = [repr(sorted(injector.stats.items()))]
    for name, outcome in sorted(result.tenants.items()):
        lines.append(
            f"{name}: off={outcome.offered} acc={outcome.accepted} "
            f"rej={outcome.rejected} shed=0 "
            f"err={outcome.errored} "
            + ",".join(f"{lat:.12e}" for lat in outcome.latencies)
        )
    lines.append(repr(sorted(result.errors.items())))
    lines.append(f"retries={result.retries}")
    for metric in result.observability["metrics"]:
        if metric["name"] in _REJECTION_AND_RETRY_METRICS:
            lines.append(repr(sorted(metric.items())))
    lines.append(f"final_now={cluster.now:.12e}")
    return "\n".join(lines)


def test_open_loop_degradation_replays_byte_identically():
    """Identical seeds + FaultPlan give byte-identical retry/backoff
    schedules through the verb-layer and application-level retries."""
    first = _open_loop_chaos_run()
    second = _open_loop_chaos_run()
    assert first.encode() == second.encode()
    # Both retry paths actually fired (the fingerprint would still match
    # trivially if the run degenerated into a happy path).
    assert "('drops', 0)" not in first
    assert "rej=0" not in first  # backoff retries then rejection
    assert "retries=0" not in first  # verb-layer retries under drops


def _overload_shaped_run():
    """A tiny ``ext_overload`` flash-crowd cell, serialized to a string:
    admission on (the flood tenant rate-limited and bulkheaded), an
    interactive tenant with an SLO and two retries, and a flood tenant
    that never retries, at a flash-crowd rate for the whole run."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=7,
            cpu=CpuConfig(cores_per_server=2),
            admission=AdmissionConfig(
                enabled=True,
                max_queue_depth=8,
                tenant_rate_ops={"flood": 40_000.0},
                bulkhead_workers={"flood": 1},
            ),
            observability=ObservabilityConfig(enabled=True),
        )
    )
    dataset = generate_dataset(1000, gap=4)
    index = build_index(cluster, "coarse-grained", dataset)
    tenants = [
        TenantSpec(
            name="interactive",
            workload=WorkloadSpec(name="reads", point_fraction=1.0),
            rate_ops_per_s=50_000.0,
            slo_p99_s=100e-6,
            max_op_retries=2,
            sessions=6,
        ),
        TenantSpec(
            name="flood",
            workload=WorkloadSpec(
                name="mixed", point_fraction=0.95, insert_fraction=0.05
            ),
            rate_ops_per_s=280_000.0,
            max_op_retries=0,
            sessions=10,
        ),
    ]
    result = WorkloadRunner(cluster, dataset).run_open(
        index, tenants, warmup_s=0.0005, measure_s=0.002, seed=3
    )
    lines = [
        repr(sorted(result.op_counts.items())),
        repr(sorted(result.errors.items())),
        repr(sorted(result.latencies.items())),
        f"offered={result.offered_ops} rejected={result.rejected_ops} "
        f"shed=0 retries={result.retries}",
        repr(sorted(result.network.items())),
        repr(sorted(result.cpu_utilization.items())),
    ]
    for name, outcome in sorted(result.tenants.items()):
        lines.append(
            f"{name}: off={outcome.offered} acc={outcome.accepted} "
            f"rej={outcome.rejected} shed=0 "
            f"err={outcome.errored} {outcome.latencies!r}"
        )
    for metric in result.observability["metrics"]:
        if metric["name"] in _REJECTION_AND_RETRY_METRICS + ("nam_slo_attainment",):
            lines.append(repr(sorted(metric.items())))
    lines.append(f"final_now={cluster.now!r}")
    return "\n".join(lines)


#: sha256 of the open-loop fingerprints. A refactor of the harness that
#: moves one arrival, draw, outcome or float changes them; both runs are
#: far from degenerate (chaos-undegraded: 407 drops, 1 397 rejections, 8
#: errors, 417 verb retries; overload: 409 flood rejections, 273
#: accepted). Both print ``shed=0``: they were first recorded when a
#: tenant could shed arrivals client-side, which none does now.
OPEN_LOOP_PINS = {
    "chaos-undegraded": "e5be714d59ab2402dfc6a7cb23107924eafc267429cf6926a23f43c67f61e9fd",
    "overload": "b64224c3a5630e366b6233fbb0e871816886d3562b9d3df00d58922060bd9974",
}


@pytest.mark.parametrize(
    "name, run",
    [("chaos-undegraded", _open_loop_chaos_run), ("overload", _overload_shaped_run)],
)
def test_an_open_loop_run_replays_the_recorded_fingerprint(name, run):
    fingerprint = run()
    assert hashlib.sha256(fingerprint.encode()).hexdigest() == OPEN_LOOP_PINS[name]


def test_different_plan_seed_diverges():
    first = _chaos_run()
    cluster = Cluster(
        ClusterConfig(num_memory_servers=2, clients_per_compute_server=6, seed=23)
    )
    dataset = generate_dataset(400, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    plan = FaultPlan(
        seed=PLAN.seed + 1,
        drop_probability=PLAN.drop_probability,
        delay_probability=PLAN.delay_probability,
        delay_s=PLAN.delay_s,
        duplicate_probability=PLAN.duplicate_probability,
        server_crashes=PLAN.server_crashes,
    )
    injector = cluster.attach_faults(plan)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, SPEC, num_clients=6, warmup_s=0.0005, measure_s=0.004, seed=29
    )
    other = repr(sorted(injector.stats.items())) + repr(
        sorted(result.op_counts.items())
    )
    assert other not in first


# -- the replay pin: same draws, same order, as constants ----------------------

#: The lossy plan of docs/performance.md "What a possible fault costs".
LOSSY_PLAN = FaultPlan(
    seed=11,
    drop_probability=0.01,
    delay_probability=0.02,
    duplicate_probability=0.01,
)


def _lossy_run(design: str, replication_factor: int):
    """``(injector.stats that moved, the RNG's PCG64 state word, window_s,
    op_counts, sha256 of every latency sample and error)`` of one seeded
    workload-C run (95 % point / 5 % insert, 16 clients x 60 ops) under
    ``LOSSY_PLAN``."""
    cluster = Cluster(ClusterConfig(seed=5, replication_factor=replication_factor))
    dataset = generate_dataset(20_000, gap=8)
    injector = cluster.attach_faults(LOSSY_PLAN)
    index = build_index(cluster, design, dataset)
    result = WorkloadRunner(cluster, dataset).run(
        index, workload_c(), num_clients=16, ops_per_client=60, seed=5
    )
    samples = repr((sorted(result.latencies.items()), sorted(result.errors.items())))
    return (
        {name: count for name, count in injector.stats.items() if count},
        injector.rng.bit_generator.state["state"]["state"],
        result.window_s,
        dict(result.op_counts),
        hashlib.sha256(samples.encode()).hexdigest(),
    )


#: Recorded at 395cc0d, before the attempt loop, the delivery or the
#: injector's predicates were touched. The RNG word moves if one draw is
#: added, dropped or made in another order; the digest if one operation
#: finishes one float ulp elsewhere.
REPLAY_PINS = {
    ("coarse-grained", 1): (
        {"drops": 17, "delays": 43, "duplicates": 8, "retries": 17, "rpc_replays": 9},
        8868634224152107057880467413852121613,
        0.000773647640779498,
        {"point": 917, "insert": 43},
        "862607638b51cc54468d5fa9b416b9d8cc6d70392227573fde4d6ef4bf4ca1b9",
    ),
    ("hybrid", 2): (
        {"drops": 28, "delays": 48, "duplicates": 23, "retries": 28, "rpc_replays": 7},
        336253410372119853703453171605064004765,
        0.0012478900818722256,
        {"point": 917, "insert": 43},
        "91aef4bb6732a62ac9a164a1eca73c287cc8138c0e63ce4d4e900abf41f3a16e",
    ),
}


@pytest.mark.parametrize("design, replication_factor", list(REPLAY_PINS))
def test_a_lossy_run_replays_the_recorded_draws(design, replication_factor):
    assert _lossy_run(design, replication_factor) == REPLAY_PINS[design, replication_factor]


# -- the kept records of a crash run, as constants -----------------------------


def _kept_triples(result):
    """The sorted ``(op_type, start, end)`` triples of a kept run's ops that
    responded: the method's op type, or ``error:<Name>`` for a typed error."""
    return sorted(
        (
            f"error:{type(op.result).__name__}" if isinstance(op.result, Exception)
            else OP_TYPES[op.method],
            op.invoked_at,
            op.responded_at,
        )
        for op in result.raw_records
        if op.responded_at is not None
    )


def test_a_crash_run_keeps_the_recorded_records():
    """A timed coarse-grained workload-D run at replication factor 2 with
    memory server 1 down from 2 ms to 4 ms: its kept records, typed errors
    among them, hash to the constant recorded at 76b8037, when the run kept
    triples, not ``Op``s."""
    cluster = Cluster(ClusterConfig(seed=7, replication_factor=2))
    dataset = generate_dataset(4_000, gap=8)
    index = build_index(cluster, "coarse-grained", dataset)
    cluster.attach_faults(
        FaultPlan(seed=7, server_crashes=(ServerCrash(1, at_s=0.002, down_for_s=0.002),))
    )
    result = WorkloadRunner(cluster, dataset).run(
        index, workload_d(), num_clients=8, warmup_s=0.001, measure_s=0.004, seed=7,
        keep_records=True,
    )
    triples = _kept_triples(result)
    assert sum(op_type.startswith("error:") for op_type, _, _ in triples) > 0
    assert (len(triples), hashlib.sha256(repr(triples).encode()).hexdigest()) == (
        2_073, "2bcad39995f964c5e86b7dac5c3cd938ebb944d14a53baa8c07e4adc7d43c016"
    )
