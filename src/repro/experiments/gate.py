"""The one gate: the baseline file format and the verdict rule.

``python -m repro gate [NAME ...] [--record] [--seed N] [--artifacts DIR]``
runs each gated experiment at its ``DEFAULT_SCALE`` — the scale its
committed ``BENCH_<name>.json`` was recorded at — and judges the run
against that file. A gated experiment module provides

* ``run(scale=DEFAULT_SCALE, seed=None) -> {cell key: cell dataclass}``
  (plus ``artifacts=DIR`` where it can dump flight bundles and traces),
* ``print_figure(results)``,
* ``WALL_FIELDS`` — the cell fields that hold wall-clock seconds, a list
  with one entry per rep; every other field is deterministic per seed,
* ``CLAIMS`` — its findings, each a :class:`Claim` over ``run``'s result.

One payload, ``{experiment, seed, cells, claims}``, is both what a run
produces and what ``--record`` commits. The verdict uses nambench
``compare.py``'s vocabulary:

``worse``       a claim does not hold or is missing on either side; or, at
                the recorded seed, a cell is missing on either side, a
                deterministic field differs at all, or the grid lost more
                than ``HOST_BAND`` of its recorded engine speed;
``unresolved``  not worse, but the reps' spread is wider than the band, so
                a loss of the band's size could hide in it;
``better``      the grid's wall seconds fell by more than the recording's
                own spread;
``same``        everything else.

Claims are judged on every run. At any other seed than the recorded one
they are judged alone: the recorded cells say nothing about that run.
"""

from __future__ import annotations

import inspect
import json
import operator
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

__all__ = ["HOST_BAND", "Claim", "Row", "payload", "verdict", "gate"]

#: The one band. Wall-clock seconds are host-dependent, so a run fails only
#: when the grid total shows more than this share of the recorded engine
#: speed lost; a spread (IQR / median of the per-rep grid totals) wider
#: than this cannot resolve such a loss.
HOST_BAND = 0.5

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One finding: ``measure(results) <op> bound``, recorded with its number."""

    name: str
    measure: Callable[[Mapping[str, Any]], float]
    op: str
    bound: float

    def judge(self, results: Mapping[str, Any]) -> Dict[str, Any]:
        value = self.measure(results)
        return {
            "value": value, "op": self.op, "bound": self.bound,
            "ok": bool(_OPS[self.op](value, self.bound)),
        }


class Row(NamedTuple):
    """One judged number: where it lives, both values, the verdict."""

    subject: str
    baseline: Any
    fresh: Any
    verdict: str


def payload(
    experiment: str, seed: int, results: Mapping[str, Any], claims: Iterable[Claim]
) -> Dict[str, Any]:
    """The one schema: what a run produces and what a BENCH file holds."""
    return {
        "experiment": experiment,
        "seed": seed,
        "cells": {key: asdict(cell) for key, cell in results.items()},
        "claims": {claim.name: claim.judge(results) for claim in claims},
    }


def _spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def _wall_row(subject: str, old: List[List[float]], new: List[List[float]]) -> Row:
    """Band the grid total of one wall field: fastest rep per cell, summed."""
    a, b = (sum(min(reps) for reps in cells) for cells in (old, new))
    spread_a, spread_b = (
        _spread([sum(rep) for rep in zip(*cells)]) for cells in (old, new)
    )
    speed = a / b - 1.0  # engine speed against the recording's
    if speed < -HOST_BAND:
        word = "worse"
    elif max(spread_a, spread_b) > HOST_BAND:
        word = "unresolved"
    else:
        word = "better" if (a - b) / a > spread_a else "same"
    return Row(
        f"{subject} seconds (engine speed {speed:+.0%}, band -{HOST_BAND:.0%}, "
        f"spread {max(spread_a, spread_b):.0%})", a, b, word,
    )


def verdict(
    baseline: Mapping[str, Any], fresh: Mapping[str, Any], wall_fields: Sequence[str] = ()
) -> List[Row]:
    """Judge the payload *fresh* against the recorded payload *baseline*."""
    name = fresh["experiment"]
    rows = [
        Row(f"{name} claim {claim} {judged['op']} {judged['bound']:g}",
            baseline["claims"].get(claim, {}).get("value"), judged["value"],
            "same" if judged["ok"] else "worse")
        for claim, judged in fresh["claims"].items()
    ]
    for claim in sorted(baseline["claims"].keys() ^ fresh["claims"].keys()):
        a, b = ("claim" if claim in side["claims"] else "missing" for side in (baseline, fresh))
        rows.append(Row(f"{name} claim {claim}", a, b, "worse"))
    if baseline["seed"] != fresh["seed"]:
        return rows
    old, new = baseline["cells"], fresh["cells"]
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            rows.append(Row(f"{name}/{key}", "cell" if key in old else "missing",
                            "cell" if key in new else "missing", "worse"))
            continue
        for field in sorted((old[key].keys() | new[key].keys()) - set(wall_fields)):
            a, b = old[key].get(field, "missing"), new[key].get(field, "missing")
            rows.append(Row(f"{name}/{key}.{field}", a, b, "same" if a == b else "worse"))
    shared = sorted(old.keys() & new.keys())
    for field in wall_fields if shared else ():
        rows.append(_wall_row(f"{name} grid {field}",
                              *([cells[key][field] for key in shared] for cells in (old, new))))
    return rows


def gate(
    name: str,
    module: ModuleType,
    baseline_path: Path,
    record: bool = False,
    seed: Optional[int] = None,
    artifacts: Optional[Path] = None,
) -> bool:
    """Run one experiment at its gate scale and judge it; True on a pass.

    Prints the figure, every row that is not ``same`` and a count line.
    ``--record`` rewrites *baseline_path* with this run (its claims are
    still judged); ``--artifacts`` keeps this run's payload beside
    whatever the experiment dumps there.
    """
    seed = module.DEFAULT_SCALE.seed if seed is None else seed
    kwargs: Dict[str, Any] = {}
    if artifacts is not None and "artifacts" in inspect.signature(module.run).parameters:
        kwargs["artifacts"] = artifacts
    results = module.run(seed=seed, **kwargs)
    module.print_figure(results)
    fresh = payload(name, seed, results, module.CLAIMS)
    text = json.dumps(fresh, indent=1, sort_keys=True) + "\n"
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
        (artifacts / baseline_path.name).write_text(text)
    if record:
        baseline_path.write_text(text)
    baseline = json.loads(baseline_path.read_text())
    rows = verdict(baseline, fresh, module.WALL_FIELDS)
    for row in rows:
        if row.verdict != "same":
            print(f"  {row.verdict.upper()}: {row.subject}: "
                  f"recorded {row.baseline!r}, this run {row.fresh!r}")
    counts = ", ".join(
        f"{sum(row.verdict == word for row in rows)} {word}"
        for word in ("same", "better", "worse", "unresolved")
    )
    scope = "" if baseline["seed"] == seed else f" recorded at seed {baseline['seed']}, claims only"
    print(f"gate {name} seed {seed} vs {baseline_path}{scope}: {counts}")
    return not any(row.verdict in ("worse", "unresolved") for row in rows)
