"""Benchmark target for the open-loop flash-crowd overload sweep.

Runs the admission-policy x offered-load grid of
:mod:`repro.experiments.ext_overload` at its default scale on the
coarse-grained design and writes ``BENCH_overload.json`` at the repo root
so the containment trajectory is recorded per commit. The CI
``smoke (overload)`` job gates the same numbers (smoke scale) against
``benchmarks/baselines/BENCH_overload_smoke.json``. See docs/overload.md.
"""

import json
from pathlib import Path

from repro.experiments import ext_overload


def test_overload_extension(benchmark, run_once):
    results = run_once(ext_overload.run)
    ext_overload.print_figure(results)

    payload = ext_overload.results_to_json(results)
    benchmark.extra_info["overload"] = payload

    out = Path(__file__).resolve().parent.parent / "BENCH_overload.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    headline = payload["headline"]
    # The acceptance bar: under a 5x flash crowd the admission-controlled
    # system keeps accepted-op p99 within 3x of its own steady state and
    # goodput above 70% of measured closed-loop capacity...
    contained = headline["admission"]
    assert contained["p99_ratio"] <= ext_overload.P99_RATIO_CEILING, headline
    assert contained["goodput_fraction"] >= ext_overload.GOODPUT_FLOOR, headline
    assert (
        contained["interactive_slo_attainment"]
        >= ext_overload.SLO_ATTAINMENT_FLOOR
    ), headline
    # ... while the uncontrolled baseline visibly collapses: p99 inflates
    # by an order of magnitude and the interactive tenant's SLO with it.
    collapse = headline["none"]
    assert collapse["p99_ratio"] >= ext_overload.COLLAPSE_RATIO_FLOOR, headline
    flash_none = results[ext_overload.cell_key("none", "flash")]
    assert flash_none.interactive_slo_attainment < 0.5, flash_none

    for cell in results.values():
        # Open-loop bookkeeping is conservation-checked downstream of the
        # runner; spot-check the policy split here.
        if cell.policy == "none":
            assert cell.rejected_ops == 0 and cell.shed_ops == 0, cell
        if cell.policy == "admission" and cell.load == "flash":
            # The flood is the tenant being bounced, not the interactive.
            assert cell.flood_rejected > 0, cell
            assert cell.rejected_ops >= cell.flood_rejected, cell
