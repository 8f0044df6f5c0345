"""Benchmark target for the engine wall-clock extension.

Runs the engine grid of :mod:`repro.experiments.ext_engine` at its default
scale (CG/FG/hybrid x batched/unbatched x observability on/off) and writes
``BENCH_engine.json`` next to the repo root so the host-speed trajectory is
recorded per commit. The CI ``smoke (engine)`` job gates the same numbers
(smoke scale) against ``benchmarks/baselines/BENCH_engine_smoke.json``.

Unlike the rest of the suite this one measures the *simulator itself*:
``wall_steps_per_s`` is events scheduled per wall-clock second, so numbers
are host-dependent and only comparable run-over-run on one machine. The
assertions below therefore check structure (determinism, batching never
scheduling extra events) plus a deliberately loose wall floor, not the
strict bars the committed artifact records (see docs/performance.md).
"""

import json
from pathlib import Path

from repro.experiments import ext_engine


def test_engine_extension(benchmark, run_once):
    cells = run_once(ext_engine.run)
    ext_engine.print_figure(cells)

    payload = ext_engine.results_to_json(cells)
    benchmark.extra_info["engine"] = payload

    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    by_key = {(c.design, c.batched, c.obs): c for c in cells}
    for design in ext_engine.DESIGNS:
        batched = by_key[(design, True, False)]
        unbatched = by_key[(design, False, False)]
        # Batching must never schedule extra events, and the batched
        # wall-step throughput must stay inside the noise floor of the
        # unbatched one (the committed artifact holds the strict >= bar;
        # a single benchmark round tolerates host jitter).
        assert batched.sim_steps <= unbatched.sim_steps, design
        ratio = batched.wall_steps_per_s / unbatched.wall_steps_per_s
        assert ratio >= ext_engine.BATCH_RATIO_FLOOR, (design, ratio)
        # Observability must not perturb the simulation.
        assert by_key[(design, True, True)].sim_steps == batched.sim_steps
        assert by_key[(design, False, True)].sim_steps == unbatched.sim_steps
    assert payload["wall_steps_per_s"] > 0
    assert payload["fine_grained_batched_wall_steps_per_s"] > 0
