"""The one gate: payload schema and verdict rule, over every gated experiment.

Each experiment the ``EXPERIMENTS`` table gates runs once at a tiny scale
(``paper`` at the tier-1 scale, in the session's shared ``paper_run``);
the verdict function is then exercised on that real payload — the same
function ``python -m repro gate`` applies to the committed ``BENCH_*.json``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import List

import pytest

from repro import Cluster
from repro.__main__ import EXPERIMENTS, _load, main
from repro.analysis.namsan.explore import TieShuffle, shuffled_ties
from repro.experiments import gate
from repro.experiments.gate import Claim
from repro.experiments.scale import ExperimentScale

TINY = ExperimentScale(
    num_keys=1_500, num_memory_servers=2, warmup_s=0.0005, measure_s=0.001
)
SEED = 7
#: Load knobs that keep the tiny grids to seconds (the gate uses the defaults).
LOAD = {
    "availability": dict(num_clients=8),
    "batching": dict(num_clients=8),
    "cachedepth": dict(num_clients=8),
}
GATED = sorted(key for key, entry in EXPERIMENTS.items() if entry.bench)
#: What ``print_figure`` must print: every extension titles itself so; the
#: reproduction prints every figure (the headings the smoke tests look for).
HEADINGS = {
    "paper": [f"Figure {n}" for n in (3, 7, 8, 9, 10, 11, 12, 13, 14, 15)] + [
        "A.4", "head nodes", "spinning", "SRQ", "request skew", "page-size",
    ],
}

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture(scope="module", params=GATED)
def measured(request):
    name = request.param
    _entry, module = _load(name)
    if name == "paper":
        results, seed = request.getfixturevalue("paper_run"), module.DEFAULT_SCALE.seed
    else:
        results, seed = _run_tiny(name, module), SEED
    return name, module, results, gate.payload(name, seed, results, module.CLAIMS)


def _run_tiny(name, module):
    return module.run(scale=TINY, seed=SEED, **LOAD.get(name, {}))


def _cells_of(rows: List[gate.Row], payload) -> List[gate.Row]:
    """The rows after the claim rows (``verdict`` lists the claims first)."""
    return rows[len(payload["claims"]):]


def _a_float_field(payload):
    """Some cell's first non-zero float field."""
    for key, cell in payload["cells"].items():
        for field, value in cell.items():
            if isinstance(value, float) and value:
                return key, field
    raise AssertionError("no float field to perturb")


def test_gated_experiments_are_the_six_with_a_bench_file():
    assert GATED == ["availability", "batching", "cachedepth", "overload", "paper", "tail"]


def test_payload_is_the_one_schema_and_round_trips(measured, capsys):
    name, module, results, payload = measured
    assert set(payload) == {"experiment", "seed", "cells", "claims"}
    assert payload["experiment"] == name
    assert set(payload["cells"]) == set(results) and results
    assert {claim.name for claim in module.CLAIMS} == set(payload["claims"])
    for judged in payload["claims"].values():
        assert set(judged) == {"value", "op", "bound", "ok"}
    assert json.loads(json.dumps(payload)) == payload
    module.print_figure(results)
    out = capsys.readouterr().out
    assert all(heading in out for heading in HEADINGS.get(name, ["Extension"]))


def test_self_comparison_is_all_same(measured):
    _name, module, _results, payload = measured
    rows = _cells_of(gate.verdict(payload, payload), payload)
    assert len(rows) >= len(payload["cells"])
    assert {row.verdict for row in rows} == {"same"}


def test_a_rerun_repeats_the_payload_exactly(measured):
    # Every cell field is judged to the digit, so none may depend on the
    # host: a second run must record the same file.
    name, module, _results, payload = measured
    if name == "paper":
        pytest.skip("the one paper run is shared by three test modules and too slow to repeat")
    again = gate.payload(name, SEED, _run_tiny(name, module), module.CLAIMS)
    assert json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True)


def test_one_ulp_is_worse_and_names_the_field(measured):
    name, module, _results, payload = measured
    key, field = _a_float_field(payload)
    fresh = copy.deepcopy(payload)
    fresh["cells"][key][field] = math.nextafter(payload["cells"][key][field], math.inf)
    rows = _cells_of(gate.verdict(payload, fresh), payload)
    moved = [row for row in rows if row.verdict != "same"]
    assert [(row.subject, row.verdict) for row in moved] == [(f"{name}/{key}.{field}", "worse")]


def test_a_zero_baseline_is_still_compared(measured):
    _name, module, _results, payload = measured
    key, field = _a_float_field(payload)
    baseline = copy.deepcopy(payload)
    baseline["cells"][key][field] = 0.0
    rows = _cells_of(gate.verdict(baseline, payload), payload)
    assert [row.verdict for row in rows if row.subject.endswith(f"/{key}.{field}")] == ["worse"]


def test_a_cell_missing_on_either_side_is_worse_and_named(measured):
    # The five per-module gates this replaces iterated the fresh results
    # and looked cells up in the baseline: a cell that disappeared passed.
    name, module, _results, payload = measured
    key = sorted(payload["cells"])[0]
    without = copy.deepcopy(payload)
    del without["cells"][key]
    for baseline, fresh in ((payload, without), (without, payload)):
        rows = _cells_of(gate.verdict(baseline, fresh), fresh)
        assert [(row.subject, row.verdict) for row in rows if row.verdict != "same"] == [
            (f"{name}/{key}", "worse")
        ]


def test_a_claim_missing_on_either_side_is_worse_and_named(measured):
    # A finding dropped from a module's CLAIMS must not pass silently, and
    # a new one is not gated until the file is re-recorded; any seed.
    name, module, _results, payload = measured
    claim = sorted(payload["claims"])[0]
    without = copy.deepcopy(payload)
    del without["claims"][claim]
    for seed in (payload["seed"], payload["seed"] + 1):
        for baseline, fresh in ((payload, without), (without, payload)):
            rows = gate.verdict(baseline, {**fresh, "seed": seed})
            # (At this tiny scale some claims are false in their own right.)
            assert [row for row in rows if row.subject.endswith(f" {claim}")] == [gate.Row(
                f"{name} claim {claim}", *(("claim", "missing") if fresh is without
                                           else ("missing", "claim")), "worse")]


def test_another_seed_judges_the_claims_alone(measured):
    _name, module, _results, payload = measured
    other = {**copy.deepcopy(payload), "seed": payload["seed"] + 1, "cells": {}}
    rows = gate.verdict(payload, other)
    assert len(rows) == len(module.CLAIMS)
    assert all(" claim " in row.subject for row in rows)


def test_a_false_claim_is_reported_by_name_with_its_value(measured):
    name, module, results, _payload = measured
    impossible = [replace(claim, op=">", bound=math.inf) for claim in module.CLAIMS]
    payload = gate.payload(name, _payload["seed"], results, impossible)
    rows = gate.verdict(payload, payload)[: len(impossible)]
    for claim, row in zip(module.CLAIMS, rows):
        assert row.verdict == "worse"
        assert row.subject == f"{name} claim {claim.name} > inf"
        assert row.fresh == claim.measure(results)


# -- the command: record, re-check, claims-only seeds, artifacts ------------


@dataclass
class _Cell:
    ops: float


def _fake_experiment(ops: float):
    return SimpleNamespace(
        DEFAULT_SCALE=ExperimentScale(seed=3),
        CLAIMS=(Claim("ops_are_positive", lambda r: r["only"].ops, ">", 0.0),),
        run=lambda seed, artifacts=None: {"only": _Cell(ops * seed)},
        print_figure=lambda results: None,
    )


def test_gate_records_then_rechecks(tmp_path: Path, capsys):
    bench, artifacts = tmp_path / "BENCH_fake.json", tmp_path / "art"
    assert gate.gate("fake", _fake_experiment(2.0), bench, record=True)
    recorded = json.loads(bench.read_text())
    assert recorded["seed"] == 3
    assert recorded["cells"] == {"only": {"ops": 6.0}}
    assert gate.gate("fake", _fake_experiment(2.0), bench, artifacts=artifacts)
    assert json.loads((artifacts / bench.name).read_text()) == recorded
    capsys.readouterr()
    assert not gate.gate("fake", _fake_experiment(2.5), bench)
    assert "WORSE: fake/only.ops: recorded 6.0, this run 7.5" in capsys.readouterr().out
    # Another seed: the numbers differ by construction; only the claim speaks.
    assert gate.gate("fake", _fake_experiment(2.5), bench, seed=4)
    assert not gate.gate("fake", _fake_experiment(-1.0), bench, seed=4)
    assert json.loads(bench.read_text()) == recorded


def test_the_command_refuses_an_ungated_name_and_a_missing_baseline(tmp_path, monkeypatch):
    with pytest.raises(SystemExit, match="not gated"):
        main(["gate", "fig07"])
    # Recording at another seed would leave every default run claims-only.
    with pytest.raises(SystemExit, match="--record keeps BENCH_batching.json at seed 42"):
        main(["gate", "batching", "--record", "--seed", "5"])
    with pytest.raises(SystemExit, match="in scheduling order.*drop --ties 1"):
        main(["gate", "batching", "--record", "--ties", "1"])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="BENCH_batching.json not found.*--record"):
        main(["gate", "batching"])


# -- --ties: same-instant order shuffled, claims judged alone ---------------


def test_a_tie_shuffle_judges_the_claims_alone(tmp_path: Path, capsys):
    bench = tmp_path / "BENCH_fake.json"
    assert gate.gate("fake", _fake_experiment(2.0), bench, record=True)
    # The recorded seed, but the cells of a shuffled run say nothing.
    assert gate.gate("fake", _fake_experiment(2.5), bench, ties=1)
    assert "fake seed 3 ties 1 vs" in capsys.readouterr().out
    assert not gate.gate("fake", _fake_experiment(-1.0), bench, ties=1)


def test_every_cluster_built_under_shuffled_ties_gets_a_fresh_pick():
    with shuffled_ties(None):
        assert Cluster().sim.scheduler is None
    with shuffled_ties(5):
        first, second = Cluster().sim, Cluster().sim
    assert isinstance(first.scheduler, TieShuffle) and first.scheduler.window == 0.0
    assert first.scheduler is not second.scheduler
    assert Cluster().sim.scheduler is None

    def fired_order(sim):
        order = []

        def sleeper(tag):
            yield 1e-6
            order.append(tag)

        for tag in range(8):
            sim.process(sleeper(tag))
        sim.run()
        return order

    # Equal instants only: the pick is seeded, and it does reorder.
    assert fired_order(first) == fired_order(second) != list(range(8))
