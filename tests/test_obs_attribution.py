"""Critical-path attribution, time-series telemetry and the flight recorder.

The PR's acceptance tests:

* **Exact reconciliation** — for every retained span of a real workload
  run, the segment decomposition sums to the span's duration to float
  precision, across all three traversal designs, with doorbell batching,
  under injected faults (retry backoff gets its own segment) and under
  admission rejection (the bounced round trip gets its own segment);
* **Time series** — per-server ring-buffer series are sampled on the sim
  clock cadence, bounded, and carried in the snapshot;
* **Flight recorder** — an induced crash under open-loop overload leaves
  dump bundles containing the fault event and the triggering op's
  attributed span, and the ``report`` CLI renders them;
* **Report CLI** — ``python -m repro.obs report`` renders a top-K
  breakdown and a p50-vs-p99 attribution diff, and round-trips via
  ``--json``.
"""

from __future__ import annotations

import json

import pytest

from repro import Cluster, ClusterConfig
from repro.config import AdmissionConfig, CpuConfig, ObservabilityConfig
from repro.experiments.common import build_index
from repro.obs import SEGMENTS, attribute_span_dict
from repro.obs.attribution import attribute_intervals
from repro.rdma.faults import FaultPlan, ServerCrash
from repro.workloads import (
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    generate_dataset,
)
from tests.test_obs_spans import nodes

DESIGNS = ("coarse-grained", "fine-grained", "hybrid")

MIX = WorkloadSpec(
    name="attr-mix",
    point_fraction=0.6,
    range_fraction=0.1,
    insert_fraction=0.3,
    selectivity=0.005,
)


def obs_config(**kwargs):
    kwargs.setdefault("enabled", True)
    kwargs.setdefault("sample_every", 1)
    return ObservabilityConfig(**kwargs)


def fresh_cluster(observability, seed=23, **config_kwargs):
    return Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=seed,
            observability=observability,
            **config_kwargs,
        )
    )


def run_closed(cluster, design, spec=MIX, *, num_keys=400, clients=6,
               measure_s=0.002, seed=29):
    dataset = generate_dataset(num_keys, gap=4)
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset)
    return runner.run(
        index, spec, num_clients=clients, warmup_s=0.0005,
        measure_s=measure_s, seed=seed,
    )


def retained_spans(cluster):
    seen = set()
    spans = []
    for span in list(cluster.obs.sampled_spans) + list(cluster.obs.slow_spans):
        if span.op_id in seen:
            continue
        seen.add(span.op_id)
        spans.append(span)
    return spans


def assert_reconciles(attribution, duration):
    """The invariant: segments are non-negative, cover the whole taxonomy,
    and sum to the duration to float precision."""
    assert set(attribution) == set(SEGMENTS)
    for label, seconds in attribution.items():
        assert seconds >= 0.0, f"negative {label}: {seconds}"
    assert sum(attribution.values()) == pytest.approx(
        duration, rel=1e-9, abs=1e-15
    )


class TestAttributeIntervals:
    def test_empty_cover_is_all_client_think(self):
        out = attribute_intervals(1.0, 3.0, [])
        assert out["client_think"] == 2.0
        assert sum(out.values()) == 2.0

    def test_zero_duration_is_all_zero(self):
        out = attribute_intervals(1.0, 1.0, [("network_flight", 0.0, 9.0)])
        assert all(v == 0.0 for v in out.values())

    def test_higher_priority_wins_overlap(self):
        out = attribute_intervals(
            0.0, 10.0,
            [("network_flight", 0.0, 10.0), ("lock_wait", 2.0, 5.0)],
        )
        assert out["lock_wait"] == pytest.approx(3.0)
        assert out["network_flight"] == pytest.approx(7.0)
        assert out["client_think"] == 0.0
        assert_reconciles(out, 10.0)

    def test_intervals_clipped_to_op_window(self):
        out = attribute_intervals(
            2.0, 4.0, [("server_cpu", 0.0, 3.0), ("nic_queue", 3.5, 9.0)]
        )
        assert out["server_cpu"] == pytest.approx(1.0)
        assert out["nic_queue"] == pytest.approx(0.5)
        assert out["client_think"] == pytest.approx(0.5)
        assert_reconciles(out, 2.0)

    def test_unknown_and_residual_labels_ignored(self):
        out = attribute_intervals(
            0.0, 1.0,
            [("bogus", 0.0, 1.0), ("client_think", 0.0, 1.0)],
        )
        # Neither an unknown label nor an explicit client_think stamp may
        # charge anything; the residual rule owns client_think.
        assert out["client_think"] == 1.0

    def test_adjacent_and_duplicate_edges(self):
        out = attribute_intervals(
            0.0, 4.0,
            [
                ("server_rpc_queue", 0.0, 1.0),
                ("server_cpu", 1.0, 2.0),
                ("server_cpu", 1.0, 2.0),
                ("network_flight", 2.0, 4.0),
            ],
        )
        assert out["server_rpc_queue"] == pytest.approx(1.0)
        assert out["server_cpu"] == pytest.approx(1.0)
        assert out["network_flight"] == pytest.approx(2.0)
        assert_reconciles(out, 4.0)

    def test_admission_reject_outranks_everything(self):
        out = attribute_intervals(
            0.0, 1.0,
            [
                ("admission_reject", 0.0, 1.0),
                ("client_backoff", 0.0, 1.0),
                ("network_flight", 0.0, 1.0),
            ],
        )
        assert out["admission_reject"] == 1.0
        assert sum(out.values()) == 1.0


class TestReconciliationAcrossDesigns:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_every_retained_span_reconciles(self, design):
        cluster = fresh_cluster(obs_config())
        result = run_closed(cluster, design)
        assert result.total_ops > 0
        spans = retained_spans(cluster)
        assert spans
        for span in spans:
            assert span.finished_at is not None
            assert_reconciles(
                attribute_span_dict(span.as_dict()), span.finished_at - span.started_at
            )

    def test_rpc_designs_attribute_server_time(self):
        """Coarse-grained traversals run on the server: the population must
        show server CPU time, and it must come from the worker stamps."""
        cluster = fresh_cluster(obs_config())
        run_closed(cluster, "coarse-grained")
        total = {label: 0.0 for label in SEGMENTS}
        for span in retained_spans(cluster):
            for label, seconds in attribute_span_dict(span.as_dict()).items():
                total[label] += seconds
        assert total["server_cpu"] > 0.0
        assert total["network_flight"] > 0.0

    def test_one_sided_design_attributes_wire_time(self):
        """Fine-grained traversals are pure one-sided reads: no server CPU
        or RPC queueing may ever be attributed."""
        cluster = fresh_cluster(obs_config())
        run_closed(cluster, "fine-grained")
        total = {label: 0.0 for label in SEGMENTS}
        for span in retained_spans(cluster):
            for label, seconds in attribute_span_dict(span.as_dict()).items():
                total[label] += seconds
        assert total["network_flight"] > 0.0
        assert total["server_cpu"] == 0.0
        assert total["server_rpc_queue"] == 0.0

    def test_reconciles_with_doorbell_batching(self):
        """Scan-heavy fine-grained runs exercise the prefetch fan-out
        (VerbBatch) path; batched verb windows must still reconcile."""
        from repro.config import TreeConfig

        scans = WorkloadSpec(
            name="attr-scan", range_fraction=0.7, insert_fraction=0.3,
            selectivity=0.15,
        )
        cluster = fresh_cluster(
            obs_config(),
            # Head-node chains + a deep prefetch window give range scans
            # the fan-out shape doorbell batching exists for.
            tree=TreeConfig(
                page_size=512, head_node_interval=24, prefetch_window=24
            ),
        )
        run_closed(cluster, "fine-grained", scans)
        spans = retained_spans(cluster)
        trees = [span.as_dict() for span in spans]
        assert any(
            event["batch_id"] is not None
            for tree in trees
            for node in nodes(tree)
            for event in node["verbs"]
        ), "expected at least one batched verb in the retained spans"
        for tree in trees:
            assert_reconciles(
                attribute_span_dict(tree), tree["finished_at"] - tree["started_at"]
            )

    def test_faulted_retries_attribute_client_backoff(self):
        """Injected drops force verb retries; the timeout-detection and
        backoff windows must surface as client_backoff, and every span —
        including the faulted ones — must still reconcile."""
        cluster = fresh_cluster(obs_config())
        cluster.attach_faults(FaultPlan(seed=97, drop_probability=0.05))
        result = run_closed(cluster, "fine-grained")
        assert result.retries > 0
        backoff = 0.0
        for span in retained_spans(cluster):
            attribution = attribute_span_dict(span.as_dict())
            assert_reconciles(
                attribution, span.finished_at - span.started_at
            )
            backoff += attribution["client_backoff"]
        assert backoff > 0.0

    def test_admission_rejection_attributes_its_own_segment(self):
        """An op bounced by the token bucket spends its whole round trip in
        admission_reject (the segment outranks the wire time beneath)."""
        cluster = fresh_cluster(
            obs_config(),
            admission=AdmissionConfig(
                enabled=True,
                # About 250 RPCs per server in the run against a
                # 32-token burst plus 25 refilled tokens.
                tenant_rate_ops={"app": 10_000.0},
            ),
            cpu=CpuConfig(cores_per_server=2),
        )
        dataset = generate_dataset(400, gap=4)
        index = build_index(cluster, "coarse-grained", dataset)
        runner = WorkloadRunner(cluster, dataset)
        tenant = TenantSpec(
            name="app",
            workload=WorkloadSpec(name="over", point_fraction=1.0),
            rate_ops_per_s=200_000.0,
            max_op_retries=1,
            sessions=8,
        )
        result = runner.run_open(
            index, [tenant], warmup_s=0.0005, measure_s=0.002, seed=31
        )
        assert result.rejected_ops > 0
        rejected_time = 0.0
        for span in retained_spans(cluster):
            attribution = attribute_span_dict(span.as_dict())
            assert_reconciles(
                attribution,
                (span.finished_at or span.started_at) - span.started_at,
            )
            rejected_time += attribution["admission_reject"]
        assert rejected_time > 0.0


class TestTimeSeries:
    def test_cadence_sampling_bounds_and_order(self):
        cluster = fresh_cluster(
            obs_config(timeseries_cadence_s=0.0002, timeseries_points=16)
        )
        result = run_closed(cluster, "coarse-grained", measure_s=0.003)
        series = result.observability["timeseries"]
        assert series, "cadence was set but no series were sampled"
        names = {entry["name"] for entry in series}
        assert {
            "nic_tx_backlog_seconds",
            "rpc_queue_len",
            "worker_occupancy",
            "server_heat_ops",
        } <= names
        for entry in series:
            points = entry["points"]
            assert 0 < len(points) <= 16
            times = [t for t, _v in points]
            assert times == sorted(times)
            assert "server" in entry["labels"]

    def test_no_cadence_no_series(self):
        cluster = fresh_cluster(obs_config())
        result = run_closed(cluster, "coarse-grained")
        assert result.observability["timeseries"] == []


class TestFlightRecorder:
    def _crash_run(self):
        cluster = fresh_cluster(
            obs_config(
                sample_every=4,
                timeseries_cadence_s=0.0005,
                flight_ring=32,
            ),
            replication_factor=2,
            cpu=CpuConfig(cores_per_server=2),
        )
        cluster.attach_faults(
            FaultPlan(
                seed=11,
                server_crashes=(
                    ServerCrash(1, at_s=0.0015, down_for_s=0.002),
                ),
            )
        )
        dataset = generate_dataset(400, gap=4)
        index = build_index(cluster, "coarse-grained", dataset)
        runner = WorkloadRunner(cluster, dataset)
        tenant = TenantSpec(
            name="app",
            workload=WorkloadSpec(name="crash", point_fraction=0.8,
                                  insert_fraction=0.2),
            rate_ops_per_s=150_000.0,
            slo_p99_s=100e-6,
            max_op_retries=1,
            sessions=8,
        )
        result = runner.run_open(
            index, [tenant], warmup_s=0.0005, measure_s=0.004, seed=13
        )
        return cluster, result

    def test_induced_fault_under_overload_dumps_bundles(self):
        _cluster, result = self._crash_run()
        flight = result.observability["flight"]
        dumps = flight["dumps"]
        assert dumps, "crash under load produced no flight dumps"
        # The dump budget bounds the list; overflow is counted, not kept.
        assert len(dumps) <= 8
        # The crash (and the restart, if it fell inside the ring's window)
        # appears in at least one bundle's fault ring.
        assert any(
            any(fault["kind"] == "server_crash" for fault in bundle["faults"])
            for bundle in dumps
        )
        # Errored-op / SLO bundles carry the triggering op and its
        # attribution, and that attribution reconciles.
        carrying = [b for b in dumps if "op" in b]
        assert carrying
        for bundle in carrying:
            assert bundle["trigger"] in ("errored-op", "slo-violation")
            op = bundle["op"]
            finished = op["finished_at"] or op["started_at"]
            assert bundle["attribution"] == attribute_span_dict(op)
            assert_reconciles(
                bundle["attribution"], finished - op["started_at"]
            )
            assert bundle["recent_ops"], "bundle lost its recent-op rings"

    def test_report_cli_renders_a_bundle(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        _cluster, result = self._crash_run()
        bundle = next(
            b for b in result.observability["flight"]["dumps"] if "op" in b
        )
        path = tmp_path / "flight.json"
        path.write_text(json.dumps(bundle, sort_keys=True))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert bundle["trigger"] in out
        assert "server_crash" in out

    def test_disabled_by_budget_zero(self, monkeypatch):
        from repro.obs import flight

        monkeypatch.setattr(flight, "MAX_FLIGHT_DUMPS", 0)
        cluster = fresh_cluster(obs_config())
        cluster.obs.flight.dump("errored-op", None)
        snap = cluster.obs.snapshot()
        assert snap["flight"]["dumps"] == []
        assert snap["flight"]["dumps_suppressed"] == 1


class TestReportCli:
    def _run_dir(self, tmp_path):
        from repro.obs.__main__ import main

        out = tmp_path / "obs-out"
        assert main([
            "run", "--out-dir", str(out), "--clients", "4",
            "--sample-every", "2", "--timeseries-cadence-s", "0.001",
        ]) == 0
        return out

    def test_report_renders_breakdown_and_diff(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = self._run_dir(tmp_path)
        capsys.readouterr()
        assert main(["report", str(out), "--top-k", "3"]) == 0
        text = capsys.readouterr().out
        # The table truncates segment names to column width; check stems.
        assert "network_flig" in text
        assert "client_think" in text
        assert "p50" in text and "p99" in text

    def test_report_json_round_trips(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = self._run_dir(tmp_path)
        capsys.readouterr()
        assert main(["report", str(out), "--json", "--top-k", "5"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "obs-report"
        assert document["retained_ops"] > 0
        assert 0 < len(document["top"]) <= 5
        durations = [row["duration_s"] for row in document["top"]]
        assert durations == sorted(durations, reverse=True)
        for row in document["top"]:
            assert set(row["attribution"]) == set(SEGMENTS)
            assert_reconciles(row["attribution"], row["duration_s"])
        diff = document["diff"]
        for key in ("p50_share", "p99_share", "delta"):
            assert set(diff[key]) == set(SEGMENTS)
        for shares in (diff["p50_share"], diff["p99_share"]):
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
