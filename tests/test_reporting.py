"""Tests for CSV export and ASCII charts."""

import csv
import io

import pytest

from repro.errors import ConfigurationError
from repro.reporting import ascii_chart, results_to_csv, write_csv
from repro.workloads.metrics import OpType, RunResult


def make_result(design="fine-grained", clients=10, throughput_ops=100):
    return RunResult(
        design=design,
        workload="A",
        num_clients=clients,
        window_s=0.01,
        op_counts={OpType.POINT: throughput_ops},
        latencies={OpType.POINT: [1e-6, 2e-6]},
        network={0: (100, 50)},
        cpu_utilization={0: 0.4},
    )


class TestCsv:
    def test_rows_carry_keys_and_metrics(self):
        results = {
            ("fine-grained", "A", 10): make_result(clients=10),
            ("hybrid", "A", 40): make_result(design="hybrid", clients=40),
        }
        text = results_to_csv(results)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["key_0"] == "fine-grained"
        assert rows[0]["key_2"] == "10"
        assert float(rows[0]["throughput_ops_s"]) == 10_000
        assert float(rows[0]["point_p99_latency_s"]) > 0

    def test_scalar_keys_accepted(self):
        text = results_to_csv({"only": make_result()})
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["key_0"] == "only"

    def test_missing_latencies_become_empty_cells(self):
        result = make_result()
        result.latencies = {}
        text = results_to_csv({"k": result})
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["point_mean_latency_s"] == ""

    def test_empty_results_rejected(self):
        with pytest.raises(ConfigurationError):
            results_to_csv({})

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv({"k": make_result()}, str(path))
        assert path.read_text().startswith("key_0,")

    def test_error_and_retry_columns(self):
        result = make_result()
        result.errors = {"RetriesExhaustedError": 3, "TimeoutError_": 2}
        result.retries = 17
        rows = list(csv.DictReader(io.StringIO(results_to_csv({"k": result}))))
        assert rows[0]["errored_ops"] == "5"
        assert rows[0]["retries"] == "17"
        # A clean run exports explicit zeros, not blanks.
        clean = list(csv.DictReader(io.StringIO(results_to_csv({"k": make_result()}))))
        assert clean[0]["errored_ops"] == "0"
        assert clean[0]["retries"] == "0"


    def test_overload_columns_round_trip(self, tmp_path):
        from repro.workloads.metrics import TenantOutcome

        result = make_result(throughput_ops=80)
        result.offered_ops = 200
        result.rejected_ops = 90
        result.tenants["t"] = TenantOutcome(
            tenant="t",
            slo_p99_s=2e-6,
            offered=200,
            accepted=80,
            rejected=90,
            latencies=[1e-6, 3e-6],
        )
        path = tmp_path / "overload.csv"
        write_csv({"k": result}, str(path))
        with open(path, newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        # The written file parses back to the exact accounting numbers.
        assert int(row["offered_ops"]) == result.offered_ops == 200
        assert int(row["accepted_ops"]) == result.accepted_ops == 80
        assert int(row["rejected_ops"]) == result.rejected_ops == 90
        assert float(row["slo_attainment"]) == result.slo_attainment == 0.5

    def test_closed_loop_rows_export_accepted_equals_total(self):
        # Closed-loop runs never reject; accepted aliases total
        # and the SLO column stays an empty cell, not a fake 1.0.
        row = list(
            csv.DictReader(io.StringIO(results_to_csv({"k": make_result()})))
        )[0]
        assert row["accepted_ops"] == row["total_ops"]
        assert row["offered_ops"] == "0"
        assert row["rejected_ops"] == "0"
        assert row["slo_attainment"] == ""


class TestAsciiChart:
    def test_renders_all_series_and_labels(self):
        chart = ascii_chart(
            {"cg": [100, 200, 300], "fg": [50, 500, 5000]},
            x_labels=[10, 40, 120],
            title="demo",
        )
        assert "demo" in chart
        assert "o cg" in chart and "x fg" in chart
        assert "10" in chart and "120" in chart
        assert chart.count("o") >= 3  # one mark per point (plus legend)

    def test_log_scale_spans_extremes(self):
        chart = ascii_chart({"s": [1, 1_000_000]}, x_labels=["a", "b"])
        assert "1e+06" in chart or "1.0e+06" in chart or "1e+6" in chart

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"s": [1, 2]}, x_labels=["a"])

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"s": [0, 0]}, x_labels=["a", "b"])

    def test_zero_points_clamp_to_floor_on_log_scale(self):
        # Regression: a zero sample used to vanish from log-scale charts
        # (it has no log image). It must now render on the bottom row.
        chart = ascii_chart({"s": [100, 0, 10_000]}, x_labels=["a", "b", "c"])
        plot_rows = [
            line for line in chart.splitlines() if "|" in line
        ]
        bottom = plot_rows[-1]
        # The zero sample's glyph sits in the middle column, bottom row.
        assert "o" in bottom
        # All three samples are plotted (legend contributes one more "o").
        marks = sum(row.count("o") for row in plot_rows)
        assert marks == 3

    def test_negative_points_clamp_on_linear_scale(self):
        chart = ascii_chart(
            {"s": [5.0, -1.0, 10.0]},
            x_labels=["a", "b", "c"],
            log_scale=False,
        )
        plot_rows = [line for line in chart.splitlines() if "|" in line]
        marks = sum(row.count("o") for row in plot_rows)
        assert marks == 3
        assert "o" in plot_rows[-1]


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        main(["list"])
        out = capsys.readouterr().out
        assert "fig07" in out and "srq" in out

    def test_unknown_experiment_exits(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_run_analytical(self, capsys):
        from repro.__main__ import main

        main(["run", "fig03"])
        assert "Figure 3" in capsys.readouterr().out

    def test_run_with_csv_export(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        import repro.experiments.a4_caching as a4
        from repro.experiments.scale import ExperimentScale

        tiny = ExperimentScale(num_keys=800, clients=(4,), measure_s=0.001,
                               warmup_s=0.0005)
        original = a4.run
        monkeypatch.setattr(
            a4, "run", lambda scale=None, **kw: original(scale=tiny, num_clients=4)
        )
        csv_path = tmp_path / "cells.csv"
        main(["run", "a4", "--small", "--csv", str(csv_path)])
        assert csv_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_chart_of_a_paired_module_draws_both_placements(self, capsys, monkeypatch):
        import repro.__main__ as cli
        from repro.experiments.scale import ExperimentScale

        tiny = ExperimentScale(num_keys=800, clients=(4, 8), selectivities=(0.01,),
                               measure_s=0.0006, warmup_s=0.0003)
        monkeypatch.setattr(cli, "SMALL", tiny)
        cli.main(["chart", "fig07", "--small"])
        out = capsys.readouterr().out
        assert "fig07 skewed workload A: ops/s vs clients" in out
        assert "fig07 uniform workload B(sel=0.01): ops/s vs clients" in out
