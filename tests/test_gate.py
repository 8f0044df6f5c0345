"""The one gate: payload schema and verdict rule, over every gated experiment.

Each experiment the ``EXPERIMENTS`` table gates runs once at a tiny scale
(``paper`` at the tier-1 scale, in the session's shared ``paper_run``);
the verdict function is then exercised on that real payload — the same
function ``python -m repro gate`` applies to the committed ``BENCH_*.json``.
Wall-clock behaviour is tested on hand-built payloads, where the seconds
are chosen rather than measured.
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

from repro.__main__ import EXPERIMENTS, _load, main
from repro.experiments import gate
from repro.experiments.gate import HOST_BAND, Claim
from repro.experiments.scale import ExperimentScale

TINY = ExperimentScale(
    num_keys=1_500, num_memory_servers=2, warmup_s=0.0005, measure_s=0.001
)
SEED = 7
#: Load knobs that keep the tiny grids to seconds (the gate uses the defaults).
LOAD = {
    "availability": dict(num_clients=8),
    "batching": dict(num_clients=8, reps=1),
    "cachedepth": dict(num_clients=8),
    "engine": dict(num_clients=8, ops_per_client=10, reps=1),
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
        results, seed = module.run(scale=TINY, seed=SEED, **LOAD.get(name, {})), SEED
    return name, module, results, gate.payload(name, seed, results, module.CLAIMS)


def _cells_of(rows: List[gate.Row], payload) -> List[gate.Row]:
    """The rows after the claim rows (``verdict`` lists the claims first)."""
    return rows[len(payload["claims"]):]


def _a_float_field(payload, wall_fields):
    """Some cell's first non-zero deterministic float field."""
    for key, cell in payload["cells"].items():
        for field, value in cell.items():
            if isinstance(value, float) and value and field not in wall_fields:
                return key, field
    raise AssertionError("no float field to perturb")


def test_gated_experiments_are_the_seven_with_a_bench_file():
    assert GATED == [
        "availability", "batching", "cachedepth", "engine", "overload", "paper", "tail",
    ]


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
    rows = _cells_of(gate.verdict(payload, payload, module.WALL_FIELDS), payload)
    assert len(rows) >= len(payload["cells"])
    assert {row.verdict for row in rows} == {"same"}
    # Wall fields are not compared as deterministic numbers.
    assert not any(row.subject.endswith(f".{field}")
                   for row in rows for field in module.WALL_FIELDS)


def test_one_ulp_is_worse_and_names_the_field(measured):
    name, module, _results, payload = measured
    key, field = _a_float_field(payload, module.WALL_FIELDS)
    fresh = copy.deepcopy(payload)
    fresh["cells"][key][field] = math.nextafter(payload["cells"][key][field], math.inf)
    rows = _cells_of(gate.verdict(payload, fresh, module.WALL_FIELDS), payload)
    moved = [row for row in rows if row.verdict != "same"]
    assert [(row.subject, row.verdict) for row in moved] == [(f"{name}/{key}.{field}", "worse")]


def test_a_zero_baseline_is_still_compared(measured):
    _name, module, _results, payload = measured
    key, field = _a_float_field(payload, module.WALL_FIELDS)
    baseline = copy.deepcopy(payload)
    baseline["cells"][key][field] = 0.0
    rows = _cells_of(gate.verdict(baseline, payload, module.WALL_FIELDS), payload)
    assert [row.verdict for row in rows if row.subject.endswith(f"/{key}.{field}")] == ["worse"]


def test_a_cell_missing_on_either_side_is_worse_and_named(measured):
    # The five per-module gates this replaces iterated the fresh results
    # and looked cells up in the baseline: a cell that disappeared passed.
    name, module, _results, payload = measured
    key = sorted(payload["cells"])[0]
    without = copy.deepcopy(payload)
    del without["cells"][key]
    for baseline, fresh in ((payload, without), (without, payload)):
        rows = _cells_of(gate.verdict(baseline, fresh, module.WALL_FIELDS), fresh)
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
            rows = gate.verdict(baseline, {**fresh, "seed": seed}, module.WALL_FIELDS)
            # (At this tiny scale some claims are false in their own right.)
            assert [row for row in rows if row.subject.endswith(f" {claim}")] == [gate.Row(
                f"{name} claim {claim}", *(("claim", "missing") if fresh is without
                                           else ("missing", "claim")), "worse")]


def test_another_seed_judges_the_claims_alone(measured):
    _name, module, _results, payload = measured
    other = {**copy.deepcopy(payload), "seed": payload["seed"] + 1, "cells": {}}
    rows = gate.verdict(payload, other, module.WALL_FIELDS)
    assert len(rows) == len(module.CLAIMS)
    assert all(" claim " in row.subject for row in rows)


def test_a_false_claim_is_reported_by_name_with_its_value(measured):
    name, module, results, _payload = measured
    impossible = [replace(claim, op=">", bound=math.inf) for claim in module.CLAIMS]
    payload = gate.payload(name, _payload["seed"], results, impossible)
    rows = gate.verdict(payload, payload, module.WALL_FIELDS)[: len(impossible)]
    for claim, row in zip(module.CLAIMS, rows):
        assert row.verdict == "worse"
        assert row.subject == f"{name} claim {claim.name} > inf"
        assert row.fresh == claim.measure(results)


# -- wall-clock seconds: one band, on the grid total ------------------------


def _timed(*reps_per_cell):
    return {
        "experiment": "timed", "seed": 1, "claims": {},
        "cells": {f"c{i}": {"steps": 10, "wall_s": list(reps)}
                  for i, reps in enumerate(reps_per_cell)},
    }


def _wall_verdict(baseline, fresh):
    (row,) = [row for row in gate.verdict(baseline, fresh, ("wall_s",)) if " grid " in row.subject]
    return row


def test_wall_is_banded_once_on_the_grid_total():
    recorded = _timed([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    # One cell three times slower, the grid total 2x: exactly half the
    # engine speed is gone, which is the band's edge and not beyond it.
    edge = _timed([3.0, 3.0, 3.0], [1.0, 1.0, 1.0])
    assert _wall_verdict(recorded, edge).verdict == "same"
    beyond = _timed([3.0, 3.0, 3.0], [1.1, 1.1, 1.1])
    row = _wall_verdict(recorded, beyond)
    assert row.verdict == "worse" and (row.baseline, row.fresh) == (2.0, pytest.approx(4.1))
    assert 1.0 - row.baseline / row.fresh > HOST_BAND
    assert _wall_verdict(recorded, _timed([0.5] * 3, [0.5] * 3)).verdict == "better"


def test_a_spread_wider_than_the_band_is_unresolved_not_a_pass():
    recorded = _timed([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    noisy = _timed([1.0, 1.5, 2.5], [1.0, 1.5, 2.5])
    assert _wall_verdict(recorded, noisy).verdict == "unresolved"
    assert _wall_verdict(noisy, recorded).verdict == "unresolved"


# -- the command: record, re-check, claims-only seeds, artifacts ------------


@dataclass
class _Cell:
    ops: float
    wall_s: List[float]


def _fake_experiment(ops: float):
    return SimpleNamespace(
        DEFAULT_SCALE=ExperimentScale(seed=3),
        WALL_FIELDS=("wall_s",),
        CLAIMS=(Claim("ops_are_positive", lambda r: r["only"].ops, ">", 0.0),),
        run=lambda seed, artifacts=None: {"only": _Cell(ops * seed, [1.0, 1.0])},
        print_figure=lambda results: None,
    )


def test_gate_records_then_rechecks(tmp_path: Path, capsys):
    bench, artifacts = tmp_path / "BENCH_fake.json", tmp_path / "art"
    assert gate.gate("fake", _fake_experiment(2.0), bench, record=True)
    recorded = json.loads(bench.read_text())
    assert recorded["seed"] == 3
    assert recorded["cells"] == {"only": {"ops": 6.0, "wall_s": [1.0, 1.0]}}
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
    with pytest.raises(SystemExit, match="--record keeps BENCH_engine.json at seed 42"):
        main(["gate", "engine", "--record", "--seed", "5"])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="BENCH_engine.json not found.*--record"):
        main(["gate", "engine"])
