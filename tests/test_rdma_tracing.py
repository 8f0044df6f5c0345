"""Tests for verb-level tracing — and, through it, the designs' verb mixes."""

import contextlib

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
)
from repro.config import ObservabilityConfig, TreeConfig
from repro.rdma.tracing import VerbTracer
from repro.rdma.verbs import Verb
from repro.workloads import WorkloadRunner, generate_dataset, workload_d
from tests.test_obs_spans import nodes


@pytest.fixture
def rigs(dataset):
    out = {}
    for cls in (CoarseGrainedIndex, FineGrainedIndex, HybridIndex):
        cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=17))
        if cls is FineGrainedIndex:
            index = cls.build(cluster, "t", *dataset.columns())
        else:
            index = cls.build(
                cluster, "t", *dataset.columns(), key_space=dataset.key_space
            )
        session = index.session(cluster.new_compute_server())
        cluster.execute(session.lookup(0))  # warm root pointer
        out[cls.design] = (cluster, session)
    return out


def test_tracer_detaches_on_exit(rigs):
    cluster, session = rigs["fine-grained"]
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.lookup(8))
    recorded = len(tracer.records)
    assert recorded > 0
    cluster.execute(session.lookup(16))
    assert len(tracer.records) == recorded  # nothing recorded after exit


def test_cg_lookup_is_exactly_one_send(rigs, dataset):
    cluster, session = rigs["coarse-grained"]
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.lookup(dataset.key_at(100)))
    assert [record.verb for record in tracer.records] == [Verb.SEND]


def test_fg_lookup_is_a_read_chain(rigs, dataset):
    cluster, session = rigs["fine-grained"]
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.lookup(dataset.key_at(100)))
    verbs = {record.verb for record in tracer.records}
    assert verbs == {Verb.READ}
    assert 2 <= len(tracer.records) <= 5  # root..leaf page chain
    # Reads are strictly sequential: pointer chasing, no overlap.
    for earlier, later in zip(tracer.records, tracer.records[1:]):
        assert later.started_at >= earlier.finished_at


def test_hybrid_lookup_is_send_plus_read(rigs, dataset):
    cluster, session = rigs["hybrid"]
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.lookup(dataset.key_at(100)))
    verbs = [record.verb for record in tracer.records]
    assert verbs == [Verb.SEND, Verb.READ]


def test_fg_insert_shows_the_lock_protocol(rigs, dataset):
    cluster, session = rigs["fine-grained"]
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.insert(dataset.key_at(100) + 1, 7))
    verbs = [record.verb for record in tracer.records]
    # ... traversal READs, then CAS (lock), WRITE (page), FAA (unlock).
    assert verbs[-3:] == [Verb.CAS, Verb.WRITE, Verb.FETCH_ADD]
    assert tracer.count(Verb.READ) >= 2


def test_prefetching_scan_overlaps_reads(dataset):
    cluster = Cluster(
        ClusterConfig(num_memory_servers=4, seed=17, tree=TreeConfig(head_node_interval=4))
    )
    index = FineGrainedIndex.build(cluster, "t", *dataset.columns())
    session = index.session(cluster.new_compute_server())
    cluster.execute(session.lookup(0))
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.range_scan(0, dataset.key_space // 2))
    reads = [r for r in tracer.records if r.verb == Verb.READ]
    overlaps = sum(
        1
        for earlier, later in zip(reads, reads[1:])
        if later.started_at < earlier.finished_at
    )
    assert overlaps > 0  # parallel prefetch READs actually overlap


def test_trace_metrics_and_format(rigs, dataset):
    cluster, session = rigs["fine-grained"]
    with VerbTracer(cluster) as tracer:
        cluster.execute(session.lookup(dataset.key_at(5)))
    assert tracer.round_trips == len(tracer.records)
    assert tracer.total_payload_bytes >= 1024
    text = tracer.format()
    assert "read" in text and "bytes" in text
    tracer.clear()
    assert tracer.format() == "(no verbs recorded)"


# -- the tracer is a reader of the observability hub ------------------------


def test_nested_tracers_both_record_and_the_outer_outlives_the_inner(rigs):
    cluster, session = rigs["fine-grained"]
    with VerbTracer(cluster) as outer:
        cluster.execute(session.lookup(8))
        first = len(outer.records)
        with VerbTracer(cluster) as inner:
            cluster.execute(session.lookup(16))
        second = len(outer.records)
        assert len(inner.records) == second - first > 0
        assert inner.records == outer.records[first:]
        cluster.execute(session.lookup(24))
        assert len(outer.records) > second  # still attached
        assert len(inner.records) == second - first  # detached for good


@pytest.mark.parametrize("hub", [False, True], ids=["hub-less", "hub-enabled"])
def test_exit_restores_the_fabric_hub(hub):
    cluster = Cluster(
        ClusterConfig(seed=17, observability=ObservabilityConfig(enabled=hub))
    )
    before = cluster.fabric.obs
    assert (before is not None) == hub
    with VerbTracer(cluster):
        assert cluster.fabric.obs is not None
    assert cluster.fabric.obs is before
    with pytest.raises(RuntimeError):
        with VerbTracer(cluster):
            raise RuntimeError("boom")
    assert cluster.fabric.obs is before
    assert before is None or before.verb_readers == []


def _runner_trace(hub: bool, traced: bool = True):
    """One seeded closed-loop run, optionally under a tracer spanning it."""
    cluster = Cluster(
        ClusterConfig(
            seed=17,
            observability=ObservabilityConfig(enabled=hub, sample_every=1),
        )
    )
    dataset = generate_dataset(2_000, gap=8)
    index = FineGrainedIndex.build(cluster, "t", *dataset.columns())
    runner = WorkloadRunner(cluster, dataset)
    tracer = VerbTracer(cluster)
    with tracer if traced else contextlib.nullcontext():
        result = runner.run(
            index, workload_d(), num_clients=4, ops_per_client=10, seed=17
        )
    return cluster, result, tracer.records


def test_records_carry_the_operation_id_of_the_cluster_hub():
    cluster, result, records = _runner_trace(hub=True)
    _, _, plain = _runner_trace(hub=False)
    assert records and {r.verb for r in records} > {Verb.READ}  # inserts too
    # Every verb of a runner-issued operation names that operation, and
    # the operation's own log holds the same verb.
    trees = {span.op_id: span.as_dict() for span in cluster.obs.sampled_spans}
    assert len(trees) == result.total_ops == 40
    for record in records:
        logged = [
            (Verb(event["verb"]), *list(event.values())[1:])
            for node in nodes(trees[record.op_id])
            for event in node["verbs"]
        ]
        assert record[:7] in logged
    # The hub-less twin sees the same wire anatomy, outside any operation.
    assert all(r.op_id is None for r in plain)
    assert [r._replace(op_id=None) for r in records] == plain


def test_tracing_does_not_move_the_simulation():
    traced, _, records = _runner_trace(hub=False)
    untraced, _, nothing = _runner_trace(hub=False, traced=False)
    assert records and not nothing
    assert traced.sim.now == untraced.sim.now
    assert traced.sim.events_scheduled == untraced.sim.events_scheduled
