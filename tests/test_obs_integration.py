"""End-to-end observability: spans reconcile with NIC counters, enabled
runs don't perturb the simulation, and the disabled path does no work.

These are the PR's acceptance tests:

* a sampled span tree's remote-only verb count reconciles *exactly* with
  the compute NIC's work-queue-entry counter (every non-local verb posts
  one WQE; local fast-path verbs post none);
* a smoke-class workload run with observability on emits a snapshot
  with span trees, and the pull collectors mirror the real NIC counters
  verbatim;
* an observability-enabled run produces byte-identical *simulated*
  results to a disabled run (the hub never schedules events);
* a disabled cluster executes zero metric/span code (monkeypatched
  instruments that raise are never reached).
"""

from __future__ import annotations

import json

import pytest

from repro import Cluster, ClusterConfig, FaultPlan, FineGrainedIndex
from repro.obs import ObservabilityConfig, chrome_trace
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset
from tests.test_obs_spans import count_verbs, nodes

SPEC = WorkloadSpec(
    name="obs-mix",
    point_fraction=0.7,
    range_fraction=0.0,
    insert_fraction=0.3,
    selectivity=0.0,
)


def obs_config(**kwargs):
    kwargs.setdefault("enabled", True)
    return ObservabilityConfig(**kwargs)


def fresh_cluster(observability=None, seed=23):
    return Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=seed,
            observability=observability or ObservabilityConfig(),
        )
    )


def run_workload(cluster, *, num_keys=400, clients=6, measure_s=0.003, seed=29):
    dataset = generate_dataset(num_keys, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, SPEC, num_clients=clients, warmup_s=0.0005,
        measure_s=measure_s, seed=seed,
    )
    return result


class TestSpanReconciliation:
    def _traced(self, cluster, gen, name):
        """Wrap one index operation in a root span, the way the workload
        runner does, and hand the span back for inspection."""

        def wrapper():
            span = cluster.obs.begin_op("op")
            result = yield from gen
            cluster.obs.end_op(span, name)
            return span, result

        return cluster.execute(wrapper())

    def test_remote_verbs_equal_posted_wqes(self):
        """Exact reconciliation: every remote verb in the span tree is one
        WQE on the issuing compute server's NIC, and vice versa."""
        cluster = fresh_cluster(obs_config(sample_every=1))
        dataset = generate_dataset(300, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        compute = cluster.new_compute_server()
        session = index.session(compute)

        for name, gen, expect in [
            ("point", session.lookup(dataset.key_at(150)), [150]),
            ("insert", session.insert(dataset.key_at(150) + 1, 999), None),
            ("point", session.lookup(dataset.key_at(150) + 1), [999]),
        ]:
            before = compute.port.wqes_posted
            span, result = self._traced(cluster, gen, name)
            delta = compute.port.wqes_posted - before
            assert delta > 0
            tree = span.as_dict()
            assert sum(count_verbs(tree, remote_only=True).values()) == delta
            if expect is not None:
                assert result == expect
            # The tree has structure, not just a flat root.
            assert any(node["kind"] in ("descend", "move_right")
                       for node in nodes(tree))
            # Every span in the tree carries the root's op id.
            assert {node["op_id"] for node in nodes(tree)} == {span.op_id}

    def test_colocated_local_verbs_post_no_wqes(self):
        """On a colocated cluster the local fast path skips the NIC, and
        remote-only counting is what keeps reconciliation exact."""
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=2, colocated=True, seed=23,
                observability=obs_config(sample_every=1),
            )
        )
        dataset = generate_dataset(300, gap=4)
        index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
        compute = cluster.new_compute_server()
        session = index.session(compute)
        before = compute.port.wqes_posted
        span, _ = self._traced(cluster, session.lookup(dataset.key_at(10)), "point")
        delta = compute.port.wqes_posted - before
        tree = span.as_dict()
        remote = sum(count_verbs(tree, remote_only=True).values())
        assert remote == delta
        # The local fast path was actually exercised somewhere in the op,
        # or the colocation stub is broken.
        assert sum(count_verbs(tree).values()) >= remote


class TestWorkloadRun:
    def test_smoke_run_emits_valid_artifacts(self):
        cluster = fresh_cluster(obs_config(sample_every=8))
        result = run_workload(cluster)
        snap = result.observability
        assert snap is not None
        assert len(snap["sampled_spans"]) >= 1
        assert snap["ops_observed"] >= result.total_ops

    def test_pull_collectors_mirror_nic_counters_exactly(self):
        cluster = fresh_cluster(obs_config())
        result = run_workload(cluster)
        mirrored = {}
        for metric in result.observability["metrics"]:
            if metric["name"] != "nic_wqes_posted_total":
                continue
            labels = metric["labels"]
            if "server" in labels:  # label values are strings in snapshots
                mirrored[("m", int(labels["server"]))] = metric["value"]
            else:
                mirrored[("c", int(labels["compute"]))] = metric["value"]
        actual = {}
        for server in cluster.memory_servers:
            actual[("m", server.server_id)] = server.port.wqes_posted
        for compute in cluster.compute_servers:
            actual[("c", compute.server_id)] = compute.port.wqes_posted
        # The snapshot was taken at the end of the run; ports are idle
        # afterwards, so the mirror must be verbatim.
        assert mirrored == actual
        assert sum(v for (kind, _), v in actual.items() if kind == "c") > 0

    def test_op_counter_matches_runner_tally(self):
        cluster = fresh_cluster(obs_config())
        result = run_workload(cluster)
        by_type = {
            metric["labels"]["type"]: metric["value"]
            for metric in result.observability["metrics"]
            if metric["name"] == "nam_ops_total"
        }
        # The registry counts every operation, warmup included; the run
        # result only counts the measurement window.
        assert sum(by_type.values()) >= result.total_ops + result.errored_ops
        assert by_type.get("point", 0) > 0

    def test_retries_surface_in_result(self):
        cluster = fresh_cluster(obs_config())
        cluster.attach_faults(FaultPlan(seed=97, drop_probability=0.05))
        result = run_workload(cluster)
        from_registry = sum(
            metric["value"]
            for metric in result.observability["metrics"]
            if metric["name"] == "nam_verb_retries_total"
        )
        assert result.retries == from_registry
        assert result.retries > 0


def _simulated_fingerprint(result, cluster):
    """Everything the simulation computes, serialized — deliberately
    excluding the observability-only fields (snapshot, retries)."""
    return "\n".join(
        [
            repr(sorted(result.op_counts.items())),
            repr(sorted(result.errors.items())),
            repr({op: [f"{s:.12e}" for s in samples]
                  for op, samples in sorted(result.latencies.items())}),
            repr(sorted(result.network.items())),
            f"events={cluster.sim.events_scheduled}",
            f"final_now={cluster.now:.12e}",
        ]
    )


class TestZeroPerturbation:
    def test_enabled_run_matches_disabled_run_byte_for_byte(self):
        """The tentpole invariant: attaching the full observability stack
        changes nothing about the simulation itself."""
        disabled = fresh_cluster()
        base = _simulated_fingerprint(run_workload(disabled), disabled)
        enabled = fresh_cluster(obs_config(sample_every=4))
        instrumented = _simulated_fingerprint(run_workload(enabled), enabled)
        assert base.encode() == instrumented.encode()

    def test_full_stack_matches_disabled_run_byte_for_byte(self):
        """Attribution stamps, cadence-sampled time series and the flight
        recorder together still perturb nothing: same fingerprint as bare."""
        disabled = fresh_cluster()
        base = _simulated_fingerprint(run_workload(disabled), disabled)
        enabled = fresh_cluster(
            obs_config(
                sample_every=2,
                timeseries_cadence_s=0.0004,
                timeseries_points=32,
                flight_ring=16,
                derive_slow_from_slo=True,
            )
        )
        instrumented = _simulated_fingerprint(run_workload(enabled), enabled)
        assert base.encode() == instrumented.encode()
        # The stack actually did something on the instrumented run.
        snap = enabled.obs.snapshot()
        assert snap["timeseries"]
        assert any(span["segments"] for span in snap["sampled_spans"])

    def test_disabled_run_is_deterministic(self):
        first = fresh_cluster()
        second = fresh_cluster()
        a = _simulated_fingerprint(run_workload(first), first)
        b = _simulated_fingerprint(run_workload(second), second)
        assert a.encode() == b.encode()

    def test_disabled_cluster_reaches_no_metric_code(self, monkeypatch):
        """The `is None` fast path is total: with observability off, not a
        single instrument or span method may execute."""
        from repro.obs import attribution, flight, hub, metrics, spans
        from repro.rdma import fabric, qp

        def boom(*_args, **_kwargs):
            raise AssertionError("metric work on the disabled path")

        monkeypatch.setattr(metrics.Counter, "inc", boom)
        monkeypatch.setattr(metrics.Counter, "set_total", boom)
        monkeypatch.setattr(metrics.Gauge, "set", boom)
        monkeypatch.setattr(metrics.Histogram, "observe", boom)
        monkeypatch.setattr(spans.OpSpan, "__init__", boom)
        monkeypatch.setattr(hub.Observability, "begin_op", boom)
        # The v2 surfaces are equally unreachable when disabled.
        monkeypatch.setattr(hub.Observability, "stamp", boom)
        monkeypatch.setattr(hub.Observability, "maybe_sample", boom)
        monkeypatch.setattr(hub.Observability, "_record", boom)
        monkeypatch.setattr(flight.FlightRecorder, "record_fault", boom)
        monkeypatch.setattr(flight.FlightRecorder, "dump", boom)
        # The flat event log's emit points: the leg helper, which appends
        # its tuple itself (both names it is called through), every hub
        # method that appends one — the step hand-off included — and the
        # functions that render a log as a tree. The flight rings fed in
        # place have no method left to patch: only end_op and
        # verb_completed reach them.
        monkeypatch.setattr(fabric, "stamped_leg", boom)
        monkeypatch.setattr(qp, "stamped_leg", boom)
        for name in ("stamp_span", "enter_step", "next_step", "exit_step",
                     "verb_completed", "end_op"):
            monkeypatch.setattr(hub.Observability, name, boom)
        monkeypatch.setattr(spans.OpSpan, "as_dict", boom)
        monkeypatch.setattr(attribution, "leg_segments", boom)
        cluster = fresh_cluster()
        assert cluster.obs is None
        result = run_workload(cluster, measure_s=0.002)
        assert result.observability is None
        assert result.retries == 0
        assert result.total_ops > 0


class TestCli:
    def test_run_writes_the_snapshot_and_its_trace(self, tmp_path):
        from repro.obs.__main__ import main

        out = tmp_path / "obs-out"
        assert main([
            "run", "--out-dir", str(out), "--clients", "4",
            "--sample-every", "8",
        ]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "snapshot.json", "trace.json",
        ]
        snapshot = json.loads((out / "snapshot.json").read_text())
        assert snapshot["sampled_spans"]
        assert json.loads((out / "trace.json").read_text()) == chrome_trace(snapshot)

    @pytest.mark.parametrize("text", ["{}", "not json"])
    def test_report_fails_without_a_retained_operation(self, tmp_path, text):
        from repro.obs.__main__ import main

        path = tmp_path / "snapshot.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        assert main(["report", str(tmp_path)]) == 1

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_report_rejects_a_top_k_below_one(self, tmp_path, top_k):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit) as exit_:
            main(["report", str(tmp_path), "--top-k", top_k])
        assert exit_.value.code == 2

    def test_run_rejects_a_point_fraction_above_one(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.obs.__main__ import main

        out = tmp_path / "obs-out"
        with pytest.raises(ConfigurationError):
            main(["run", "--out-dir", str(out), "--point-fraction", "1.5"])
        assert not out.exists()
