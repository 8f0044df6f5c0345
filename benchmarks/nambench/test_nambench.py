"""Tests of nambench itself, on tiny copies of the seven workloads.

Run by path (tier-1 ``testpaths`` does not include this directory)::

    PYTHONPATH=src python -m pytest benchmarks/nambench/test_nambench.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import host  # noqa: E402
import ledger  # noqa: E402
import run as nambench  # noqa: E402

CONTRACT = nambench.CONTRACT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = ("sim_kops_per_s", "sim_gmean_us", "sim_p99_tail_us", "host_calls_per_op")


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Same designs, mixes and configurations; a fraction of the work."""
    for name, workload in cells.WORKLOADS.items():
        monkeypatch.setitem(
            cells.WORKLOADS, name,
            dataclasses.replace(workload, clients=48, ops_per_client=3),
        )
    monkeypatch.setattr(ledger, "MICRO_CALLS", 20)
    monkeypatch.setattr(host, "CALIB_STEPS_PER_CLIENT", 10)


def values(record):
    return {name: metric["value"] for name, metric in record["metrics"].items()}


def test_contract_is_within_its_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/nambench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert [w["name"] for w in CONTRACT["workloads"]] == list(cells.WORKLOADS)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert 1 <= CONTRACT["run_seconds"] <= 60


@pytest.mark.parametrize("name", list(cells.WORKLOADS))
def test_every_metric_of_the_contract_is_emitted(name):
    end_to_end = nambench.run_workload(name, seed=42, seconds=0, trace=0)
    assert end_to_end["correct"] and end_to_end["failed"] == 0
    assert end_to_end["attempted"] >= cells.MIN_REPS * 144
    assert list(end_to_end["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(value != 0 for value in values(end_to_end).values())
    assert end_to_end["host"]["reps"] == cells.MIN_REPS
    assert len(end_to_end["host"]["calibration_s"]) > cells.MIN_REPS

    per_layer = nambench.run_workload(name, seed=42, seconds=0, trace=1)
    assert per_layer["correct"] and per_layer["failed"] == 0
    layer = values(per_layer)
    assert list(layer) == [m["name"] for m in CONTRACT["per_layer"]]
    assert sum(layer[f"host_share.{l}"] for l in ledger.LAYERS) == pytest.approx(1.0)
    # The traced run profiles the same configuration at the same seed.
    assert sum(layer[f"host_calls.{l}"] for l in ledger.LAYERS) == pytest.approx(
        values(end_to_end)["host_calls_per_op"]
    )
    hub_on = cells.WORKLOADS[name].hub
    assert (layer["host_calls.obs"] > 0) == hub_on
    assert (layer["cache.hit_rate"] > 0) == (cells.WORKLOADS[name].cache_depth > 0)
    design = cells.WORKLOADS[name].design
    assert layer[f"matrix.sim_kops_per_s.{design}"] > 0
    assert {event["ph"] for event in per_layer["trace_events"]} == {"X"}
    assert {"id", "parent", "name", "workload", "rep", "start", "end"} == set(
        per_layer["spans"][0]
    )


@pytest.mark.parametrize("name", list(cells.WORKLOADS))
def test_simulated_metrics_depend_on_the_seed_alone(name):
    short = nambench.run_workload(name, seed=7, seconds=0, trace=0)
    long = nambench.run_workload(name, seed=7, seconds=1, trace=0)
    other = nambench.run_workload(name, seed=8, seconds=0, trace=0)
    assert long["host"]["reps"] > short["host"]["reps"] == cells.MIN_REPS
    for metric in EXACT:
        assert values(short)[metric] == values(long)[metric]
    assert values(short)["sim_gmean_us"] != values(other)["sim_gmean_us"]


def test_traced_workload_equals_its_untraced_twin():
    plain = nambench.run_workload("fg_point_uniform", seed=42, seconds=0, trace=0)
    traced = nambench.run_workload("fg_point_uniform_traced", seed=42, seconds=0, trace=0)
    for metric in ("sim_kops_per_s", "sim_gmean_us", "sim_p99_tail_us"):
        assert values(plain)[metric] == values(traced)[metric]
    assert values(traced)["host_calls_per_op"] > values(plain)["host_calls_per_op"]


def test_a_wrong_outcome_fails_the_run(monkeypatch):
    monkeypatch.setattr(cells, "verify_index", lambda cluster, index: type(
        "Report", (), {"ok": False, "violations": ["planted"], "summary": lambda self: "bad"}
    )())
    record = nambench.run_workload("fg_insert_heavy", seed=42, seconds=0, trace=0)
    assert not record["correct"] and "planted" in record["check_failure"]


def test_last_line_is_the_result_object(capsys):
    record = nambench.run_workload("cg_point_zipf", seed=42, seconds=0, trace=0)
    nambench.print_record(record)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(metric) == {"value", "unit"} for metric in last["metrics"].values())


def test_compare_judges_two_ledgers(tmp_path, capsys):
    runs = [
        nambench.run_workload(name, seed=42, seconds=0, trace=0)
        for name in cells.WORKLOADS
    ]
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"runs": runs}))
    assert nambench.main(["--compare", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "49 same, 0 better, 0 worse, 0 unresolved" in out

    # An exact metric that moves at equal seeds is worse whatever the bound.
    worse = json.loads(a.read_text())
    worse["runs"][0]["metrics"]["host_calls_per_op"]["value"] *= 1.001
    worse["runs"][1]["host"]["noisy"] = True
    b = tmp_path / "b.json"
    b.write_text(json.dumps(worse))
    assert nambench.main(["--compare", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert "1 worse" in captured.out and "noisy host" in captured.err

    # A failed operation is worse too.
    failing = json.loads(a.read_text())
    failing["runs"][2]["failed"] = 1
    b.write_text(json.dumps(failing))
    assert nambench.main(["--compare", str(a), str(b)]) == 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(nambench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "nambench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/nambench/run.py", "--workload",
         "fg_point_uniform", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
