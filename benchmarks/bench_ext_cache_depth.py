"""Benchmark target for the coherent cache-depth sweep.

Runs the cache depth x skew x write-ratio grid of
:mod:`repro.experiments.ext_cache_depth` at its default scale on the
fine-grained design and writes ``BENCH_caching.json`` at the repo root so
the speedup trajectory is recorded per commit. The CI ``smoke (caching)`` job
gates the same numbers (smoke scale) against
``benchmarks/baselines/BENCH_caching_smoke.json``. See docs/caching.md.
"""

import json
from pathlib import Path

from repro.experiments import ext_cache_depth


def test_cache_depth_extension(benchmark, run_once):
    results = run_once(ext_cache_depth.run)
    ext_cache_depth.print_figure(results)

    payload = ext_cache_depth.results_to_json(results)
    benchmark.extra_info["caching"] = payload

    out = Path(__file__).resolve().parent.parent / "BENCH_caching.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    speedups = payload["speedups"]
    # The acceptance bar: caching buys the Zipfian read-only workload at
    # least 2x simulated throughput at the best depth.
    assert speedups["zipfian/w0"] >= ext_cache_depth.SPEEDUP_FLOOR, speedups
    # Coherence must never cost more than it saves: even at a 50% write
    # ratio the best depth stays at or above the uncached baseline.
    assert speedups["zipfian/w0.5"] >= 1.0, speedups
    assert speedups["uniform/w0.5"] >= 1.0, speedups

    for cell in results.values():
        if cell.depth == 0:
            # Depth 0 is a clean disable: no cache traffic at all.
            assert cell.hit_rate == 0.0
            assert cell.revalidations == 0 and cell.invalidations == 0
        if cell.write_ratio == 0.0:
            # Read-only runs never trigger revalidation (no SMOs ran).
            assert cell.revalidations == 0
