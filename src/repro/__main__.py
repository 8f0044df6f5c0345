"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``list`` — show the reproduced tables/figures and their modules;
* ``run <experiment> [--small] [--csv PATH]`` — run one experiment
  harness (``module.run(scale=...)``), print its paper-shaped series
  (``module.print_figure(results)``), optionally export the raw cells to
  CSV;
* ``chart <experiment> [--small]`` — run and render an ASCII chart of the
  headline series (throughput experiments only);
* ``gate [experiment ...] [--record] [--seed N] [--artifacts DIR]`` —
  run the gated experiments (all of them by default) at the scale their
  committed ``BENCH_*.json`` was recorded at and judge each run against
  that file (:mod:`repro.experiments.gate`); exit 1 unless every verdict
  is ``same``.

Every experiment is declared once, in :data:`EXPERIMENTS` — the table
drives ``list``, ``run``, ``chart``, ``gate`` and the ``--help`` epilog,
so a new harness registers here and nowhere else.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.scale import DEFAULT, SMALL


@dataclass(frozen=True)
class Experiment:
    """One registered experiment harness.

    Every module has ``run(scale=...)`` and ``print_figure(results)``. A
    figure module's cells are ``RunResult`` objects under tuple keys (a paired
    module — Figures 7/8, 13/14 — runs both placements); an extension's may
    be its own dataclasses, and it may carry its own ``DEFAULT_SCALE``
    (used instead of the generic one).

    *bench* names the committed baseline of a gated experiment, relative
    to the repository root; ``gate`` runs exactly the entries that have one.
    """

    key: str
    title: str
    module: str
    chartable: bool = False
    bench: Optional[str] = None


_TABLE = [
    Experiment("fig03", "Table 2 + Figure 3 (analytical model)", "fig03_analytical"),
    Experiment("fig07", "Figure 7: throughput, skewed data (with Figure 8)",
               "fig07_08_throughput", chartable=True),
    Experiment("fig08", "Figure 8: throughput, uniform data (with Figure 7)",
               "fig07_08_throughput", chartable=True),
    Experiment("fig09", "Figure 9: network utilization", "fig09_network"),
    Experiment("fig10", "Figure 10: varying data size", "fig10_datasize"),
    Experiment("fig11", "Figure 11: varying memory servers", "fig11_servers"),
    Experiment("fig12", "Figure 12: workloads with inserts", "fig12_inserts",
               chartable=True),
    Experiment("fig13", "Figure 13: latency, skewed data (with Figure 14)",
               "fig13_14_latency"),
    Experiment("fig14", "Figure 14: latency, uniform data (with Figure 13)",
               "fig13_14_latency"),
    Experiment("fig15", "Figure 15: co-location", "fig15_colocation"),
    Experiment("a4", "Appendix A.4: client-side caching", "a4_caching"),
    Experiment("heads", "Ablation: head-node prefetching", "ablation_head_nodes"),
    Experiment("contention", "Ablation: insert hotspot spinning",
               "ablation_insert_contention"),
    Experiment("srq", "Ablation: shared receive queues", "ablation_srq"),
    Experiment("reqskew", "Extension: Zipfian request skew", "ext_request_skew"),
    Experiment("pagesize", "Extension: page-size sensitivity", "ext_page_size"),
    Experiment("paper", "All of the above, once, with every shape a named claim",
               "paper", bench="BENCH_paper.json"),
    Experiment("cachedepth", "Extension: coherent cache-depth sweep",
               "ext_cache_depth", bench="BENCH_caching.json"),
    Experiment("availability", "Extension: crash availability & replication",
               "ext_availability", bench="BENCH_availability.json"),
    Experiment("batching", "Extension: doorbell-batched verb pipeline",
               "ext_verb_batching", bench="BENCH_batching.json"),
    Experiment("overload", "Extension: flash-crowd overload & admission",
               "ext_overload", bench="BENCH_overload.json"),
    Experiment("tail", "Extension: critical-path tail-latency attribution",
               "ext_tail_attribution", bench="BENCH_tail.json"),
]

EXPERIMENTS = {entry.key: entry for entry in _TABLE}
_GATED = sorted(entry.key for entry in _TABLE if entry.bench)


def _experiment_table() -> str:
    width = max(len(key) for key in EXPERIMENTS)
    return "\n".join(
        f"  {entry.key:<{width}}  {entry.title}"
        f"  [repro.experiments.{entry.module}]"
        for entry in EXPERIMENTS.values()
    )


def _load(name: str):
    import importlib

    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; run `python -m repro list`"
        )
    return entry, importlib.import_module(f"repro.experiments.{entry.module}")


def _run_experiment(name: str, small: bool):
    _entry, module = _load(name)
    # Extension harnesses that calibrate their own cluster shape publish a
    # ``DEFAULT_SCALE``; everything else runs on the shared grid sizes.
    scale = SMALL if small else getattr(module, "DEFAULT_SCALE", DEFAULT)
    return module, module.run(scale=scale)


def cmd_list(_args) -> None:
    print(_experiment_table())


def cmd_run(args) -> None:
    module, results = _run_experiment(args.experiment, args.small)
    module.print_figure(results)
    if args.csv:
        from repro.reporting import write_csv
        from repro.workloads.metrics import RunResult

        flat = {
            key: value[0] if isinstance(value, tuple) else value
            for key, value in results.items()
        }
        if not all(isinstance(value, RunResult) for value in flat.values()):
            hint = (
                f"`python -m repro gate {args.experiment} --artifacts DIR` "
                f"writes them as JSON"
                if EXPERIMENTS[args.experiment].bench
                else "nothing to export"
            )
            print(f"(these cells are not RunResults; {hint})")
            return
        write_csv(flat, args.csv)
        print(f"\nwrote {len(flat)} rows to {args.csv}")


def cmd_chart(args) -> None:
    from repro.reporting import ascii_chart

    # Keys end (..., design, workload, clients); what comes before (a
    # paired module's placement) and the workload name one chart.
    _module, results = _run_experiment(args.experiment, args.small)
    clients = sorted({key[-1] for key in results})
    designs = sorted({key[-3] for key in results})
    for panel in sorted({(*key[:-3], key[-2]) for key in results}):
        *prefix, workload = panel
        series = {
            design: [results[(*prefix, design, workload, c)].throughput for c in clients]
            for design in designs
        }
        print()
        title = " ".join([args.experiment, *prefix, f"workload {workload}: ops/s vs clients"])
        print(ascii_chart(series, clients, title=title))


def cmd_gate(args) -> int:
    from repro.experiments.gate import gate

    passed = True
    for name in args.experiment or _GATED:
        entry, module = _load(name)
        if entry.bench is None:
            raise SystemExit(f"{name!r} is not gated; choose from {', '.join(_GATED)}")
        if args.record and args.seed not in (None, module.DEFAULT_SCALE.seed):
            raise SystemExit(
                f"--record keeps {entry.bench} at seed {module.DEFAULT_SCALE.seed}, "
                f"the seed a plain `gate {name}` runs; drop --seed {args.seed}"
            )
        if not args.record and not Path(entry.bench).exists():
            raise SystemExit(
                f"{entry.bench} not found: run from the repository root, or "
                f"record it with `python -m repro gate {name} --record`"
            )
        passed &= gate(name, module, Path(entry.bench), record=args.record,
                       seed=args.seed, artifacts=args.artifacts)
    return 0 if passed else 1


def main(argv=None) -> Optional[int]:
    chartable = sorted(
        entry.key for entry in EXPERIMENTS.values() if entry.chartable
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SIGMOD'19 distributed RDMA tree-index reproduction",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="experiments:\n" + _experiment_table(),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list reproduced experiments")

    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--small", action="store_true",
                            help="use the fast benchmark scale")
    run_parser.add_argument("--csv", metavar="PATH",
                            help="export raw cells to CSV")

    chart_parser = commands.add_parser("chart", help="ASCII chart of a sweep")
    chart_parser.add_argument("experiment", choices=chartable)
    chart_parser.add_argument("--small", action="store_true")

    gate_parser = commands.add_parser(
        "gate", help="judge the gated experiments against their BENCH files"
    )
    gate_parser.add_argument("experiment", nargs="*", metavar="NAME",
                             help="default: every gated experiment ("
                             + ", ".join(_GATED) + ")")
    gate_parser.add_argument("--record", action="store_true",
                             help="rewrite the BENCH files from this run"
                             " (at the default seed only)")
    gate_parser.add_argument("--seed", type=int, default=None,
                             help="any seed but the recorded one judges the"
                             " claims alone")
    gate_parser.add_argument("--artifacts", type=Path, default=None,
                             help="keep payloads, flight bundles and traces here")

    args = parser.parse_args(argv)
    return {"list": cmd_list, "run": cmd_run, "chart": cmd_chart,
            "gate": cmd_gate}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
