"""``run.py --compare A.json B.json``: judge two ledger files written by ``--out``.

One row per workload x end-to-end metric, plus one ``failed`` row per
workload: both values (medians over the file's seeds), the relative
difference, the metric's bound, the wider of the two files' spreads
(IQR / median over seeds) and a verdict:

``worse``       B is worse than A by more than the bound (any difference
                at all for an exact metric at equal seeds; any rise of the
                failure rate);
``unresolved``  not worse, but the spread is wider than the bound, so a
                regression of the bound's size could hide in it;
``better``      B is better than A by more than A's spread (any difference
                for an exact metric at equal seeds);
``same``        everything else.

``sim_*`` and ``host_calls_per_op`` are deterministic per seed, so at equal
seeds they are compared exactly, whatever the bound says; the bounds absorb
the driver's ten *different* seeds. Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

from host import spread


def _is_exact(metric: str) -> bool:
    return metric.startswith("sim_") or metric == "host_calls_per_op"


def _load(path: Path) -> Dict[str, Dict[str, Any]]:
    """Per workload: seeds, per-metric values in seed order, failures."""
    document = json.loads(path.read_text())
    workloads: Dict[str, Dict[str, Any]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        entry = workloads.setdefault(
            run["workload"],
            {"seeds": [], "values": {}, "failed": 0, "attempted": 0, "noisy": False},
        )
        entry["seeds"].append(run["seed"])
        entry["failed"] += run["failed"]
        entry["attempted"] += run["attempted"]
        entry["noisy"] = entry["noisy"] or run["host"]["noisy"]
        for name, metric in run["metrics"].items():
            entry["values"].setdefault(name, []).append(metric["value"])
    return workloads


def _verdict(metric: Dict[str, Any], a: List[float], b: List[float],
             equal_seeds: bool) -> Dict[str, Any]:
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / median_a
    widest = max(spread(a), spread(b))
    if equal_seeds and _is_exact(metric["name"]):
        verdict = "same" if a == b else ("worse" if worse_by > 0 else "better")
    elif worse_by > metric["bound"]:
        verdict = "worse"
    elif widest > metric["bound"]:
        verdict = "unresolved"
    elif -worse_by > spread(a) and worse_by < 0:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "a": median_a, "b": median_b, "diff": (median_b - median_a) / median_a,
        "spread": widest, "verdict": verdict,
    }


def compare_files(path_a: Path, path_b: Path, contract: Dict[str, Any]) -> int:
    """Print the comparison table; returns the process exit code."""
    a, b = _load(path_a), _load(path_b)
    for path, workloads in ((path_a, a), (path_b, b)):
        noisy = sorted(name for name, entry in workloads.items() if entry["noisy"])
        if noisy:
            print(
                f"nambench: WARNING {path} was measured on a noisy host "
                f"(calibration spread above the limit on {', '.join(noisy)})",
                file=sys.stderr,
            )
    print(
        f"{'workload':<24} {'metric':<18} {'A':>12} {'B':>12} {'diff':>8} "
        f"{'bound':>6} {'spread':>7}  verdict"
    )
    verdicts = []
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload:<24} missing from {path_a if workload not in a else path_b}")
            verdicts.append("worse")
            continue
        equal_seeds = a[workload]["seeds"] == b[workload]["seeds"]
        for metric in contract["end_to_end"]:
            row = _verdict(
                metric,
                a[workload]["values"][metric["name"]],
                b[workload]["values"][metric["name"]],
                equal_seeds,
            )
            verdicts.append(row["verdict"])
            print(
                f"{workload:<24} {metric['name']:<18} {row['a']:>12.6g} "
                f"{row['b']:>12.6g} {row['diff']:>+8.2%} {metric['bound']:>6.0%} "
                f"{row['spread']:>7.2%}  {row['verdict']}"
            )
        rate_a = a[workload]["failed"] / a[workload]["attempted"]
        rate_b = b[workload]["failed"] / b[workload]["attempted"]
        verdict = "worse" if rate_b > rate_a else "better" if rate_b < rate_a else "same"
        verdicts.append(verdict)
        print(
            f"{workload:<24} {'failed':<18} "
            f"{a[workload]['failed']:>5}/{a[workload]['attempted']:<6} "
            f"{b[workload]['failed']:>5}/{b[workload]['attempted']:<6} "
            f"{'':>8} {'':>6} {'':>7}  {verdict}"
        )
    counts = {v: verdicts.count(v) for v in ("same", "better", "worse", "unresolved")}
    print("nambench compare: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0
