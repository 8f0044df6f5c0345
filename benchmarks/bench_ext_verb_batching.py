"""Benchmark target for the doorbell-batching extension.

Runs the batched-vs-unbatched grid of
:mod:`repro.experiments.ext_verb_batching` at its default scale (all three
designs, 8 memory servers) and writes ``BENCH_batching.json`` next to the
repo root so the speedup and engine-speed trajectory is recorded per
commit. The CI ``smoke (batching)`` job gates the same numbers (smoke scale)
against ``benchmarks/baselines/BENCH_batching_smoke.json``.
"""

import json
from pathlib import Path

from repro.experiments import ext_verb_batching


def test_verb_batching_extension(benchmark, run_once):
    results = run_once(ext_verb_batching.run)
    ext_verb_batching.print_figure(results)

    payload = ext_verb_batching.results_to_json(results)
    benchmark.extra_info["batching"] = payload

    out = Path(__file__).resolve().parent.parent / "BENCH_batching.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    fine = results["fine-grained"]
    hybrid = results["hybrid"]
    coarse = results["coarse-grained"]

    # The acceptance bar: batching buys the fine-grained design at least
    # 1.5x simulated throughput on the message-rate-bound profile.
    assert fine.speedup >= ext_verb_batching.SPEEDUP_FLOOR, fine.speedup
    # The hybrid leaf level uses the same one-sided fan-out, so it must
    # benefit too (its RPC traversals dilute the win).
    assert hybrid.speedup > 1.2, hybrid.speedup
    # Coarse-grained is pure RPC: batching must be a no-op, not a tax.
    assert 0.95 <= coarse.speedup <= 1.05, coarse.speedup
    # Batching removes simulation events (fewer messages), so the batched
    # run must not schedule more of them.
    assert fine.batched.sim_steps < fine.unbatched.sim_steps
