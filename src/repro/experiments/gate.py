"""The one gate: the baseline file format and the verdict rule.

``python -m repro gate [NAME ...] [--record] [--seed N] [--artifacts DIR]``
runs each gated experiment at its ``DEFAULT_SCALE`` — the scale its
committed ``BENCH_<name>.json`` was recorded at — and judges the run
against that file. A gated experiment module provides

* ``run(scale=DEFAULT_SCALE, seed=None) -> {cell key: cell dataclass}``
  (plus ``artifacts=DIR`` where it can dump flight bundles and traces),
* ``print_figure(results)``,
* ``CLAIMS`` — its findings, each a :class:`Claim` over ``run``'s result.

Every cell field is simulated, so deterministic per seed. One payload,
``{experiment, seed, cells, claims}``, is both what a run produces and
what ``--record`` commits. A run is judged

``worse``  when a claim does not hold or is missing on either side; or, at
           the recorded seed, a cell is missing on either side or any field
           of one differs at all;
``same``   otherwise.

Claims are judged on every run. At any other seed than the recorded one
they are judged alone: the recorded cells say nothing about that run.
Host time is not judged here: nambench (``benchmarks/nambench``) measures
it as alternating pairs.
"""

from __future__ import annotations

import inspect
import json
import operator
from dataclasses import asdict, dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional

__all__ = ["Claim", "Row", "payload", "verdict", "gate"]

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


def verdict(baseline: Mapping[str, Any], fresh: Mapping[str, Any]) -> List[Row]:
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
        for field in sorted(old[key].keys() | new[key].keys()):
            a, b = old[key].get(field, "missing"), new[key].get(field, "missing")
            rows.append(Row(f"{name}/{key}.{field}", a, b, "same" if a == b else "worse"))
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
    rows = verdict(baseline, fresh)
    for row in rows:
        if row.verdict != "same":
            print(f"  {row.verdict.upper()}: {row.subject}: "
                  f"recorded {row.baseline!r}, this run {row.fresh!r}")
    counts = ", ".join(
        f"{sum(row.verdict == word for row in rows)} {word}"
        for word in ("same", "worse")
    )
    scope = "" if baseline["seed"] == seed else f" recorded at seed {baseline['seed']}, claims only"
    print(f"gate {name} seed {seed} vs {baseline_path}{scope}: {counts}")
    return not any(row.verdict == "worse" for row in rows)
