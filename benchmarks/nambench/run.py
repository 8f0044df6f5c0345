"""nambench: seven single-design workloads on the simulated NAM cluster.

Driver form (the contract of BENCHMARK.json, which also holds every
metric's unit and bound and every workload's *why*)::

    python3 benchmarks/nambench/run.py --workload W --seed N --seconds S --trace 0|1

prints a labelled table and, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the six
end-to-end metrics with ``--trace 0``, the 70 per-layer metrics with
``--trace 1``. Two systems are measured and every number is labelled with
its clock: the *simulated NAM cluster* (simulated time, deterministic per
seed) and the *simulator as a program* (host time, noisy, reported
calibrated; plus an exact call count).

``--out FILE [--seeds K]`` runs everything — every workload at seeds
N..N+K-1 with ``--trace 0`` and once at seed N with ``--trace 1``, each in
a process of its own as the driver does — and writes one ledger file, with
``trace.json`` beside it. ``--compare A.json B.json`` judges two such files
(compare.py). README.md explains the metrics and the method.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"nambench: the program under test is missing ({ROOT / 'src' / 'repro'})")
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.export import chrome_trace  # noqa: E402

import ledger  # noqa: E402
from cells import (  # noqa: E402
    DESIGNS,
    INPUTS,
    MIN_REPS,
    WORKLOADS,
    CheckFailure,
    Rep,
    Workload,
    input_seed,
    require_same_outcome,
    run_rep,
    sim_summary,
    verify_cell,
)
from compare import compare_files  # noqa: E402
from host import Calibrator, Spans, calibrated, host_block  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Chrome-trace process id of the benchmark's own spans (the hub's op
#: spans use the client id as theirs).
SPANS_PID = 1_000_000
#: Which clock a metric is read on, by name prefix (first match wins).
_CLOCKS = (
    ("sim_", "simulated"),
    ("host_calls", "exact count"),
    ("host_share.", "host share"),
    ("host_us_per_op", "host, calibrated"),
    ("setup_s", "host, calibrated"),
    ("micro.", "host, calibrated"),
    ("obs.overhead_frac", "host, calibrated"),
    ("runner.host_raw", "host, raw"),
    ("runner.peak_rss", "host memory"),
    ("span.", "host, raw"),
    ("", "simulated"),
)


class Run:
    """One process's measurement of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.spans = Spans(workload.name)
        self.calibrator = Calibrator(self.spans)
        self.reps: List[Rep] = []
        self._before = self.calibrator.calibrate()

    def rep(
        self,
        seed: int,
        design: Optional[str] = None,
        hub: Optional[bool] = None,
        profiler: Any = None,
        verify: bool = False,
    ) -> Rep:
        """One rep bracketed by calibration loops, counted and checked."""
        rep, cell = run_rep(
            self.workload, self.spans, len(self.reps), seed, design, hub, profiler
        )
        after = self.calibrator.calibrate()
        rep.calibration_s = (self._before + after) / 2.0
        self._before = after
        self.reps.append(rep)
        if rep.completed != self.workload.ops or rep.errored:
            raise CheckFailure(
                f"{self.workload.name} rep {rep.number} ({rep.design}, seed "
                f"{seed}): {rep.completed} completed and {rep.errored} errored "
                f"of {self.workload.ops} issued: {rep.result.errors}"
            )
        if verify:
            with self.spans.span("verify", rep.number):
                verify_cell(self.workload, rep, cell)
            self._before = self.calibrator.calibrate()
        return rep

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started

    @property
    def attempted(self) -> int:
        return self.workload.ops * len(self.reps)

    @property
    def failed(self) -> int:
        return self.attempted - sum(rep.completed for rep in self.reps)


def measure_end_to_end(run: Run, seconds: float) -> Dict[str, Any]:
    """``--trace 0``: at least MIN_REPS timed reps over INPUTS inputs, then
    more while *seconds* last; the hub-off twin of a hub-on workload; one
    profiled rep for the call count."""
    workload, ops = run.workload, run.workload.ops
    firsts: List[Rep] = []
    timed: List[Rep] = []
    while len(timed) < MIN_REPS or run.elapsed_s < seconds:
        number = len(timed)
        first_run = number < INPUTS
        rep = run.rep(input_seed(run.seed, number), verify=first_run)
        if first_run:
            firsts.append(rep)
        else:
            require_same_outcome(
                workload, firsts[number % INPUTS], rep, "a repeat of the input"
            )
        timed.append(rep)
    if workload.hub:
        twin = run.rep(run.seed, hub=False)
        require_same_outcome(workload, firsts[0], twin, "the hub-off twin")
    profiler = cProfile.Profile()
    profiled = run.rep(run.seed, profiler=profiler)
    require_same_outcome(workload, firsts[0], profiled, "the profiled rep")
    inputs = [sim_summary(rep) for rep in firsts]
    metrics = {
        name: statistics.fmean(summary[name] for summary in inputs)
        for name in ("sim_kops_per_s", "sim_gmean_us", "sim_p99_tail_us")
    }
    metrics["host_us_per_op"] = statistics.median(
        calibrated(rep.run_wall_s, rep.calibration_s) / ops * 1e6 for rep in timed
    )
    metrics["host_calls_per_op"] = ledger.profile_ledger(profiler, ops)[
        "host_calls_per_op"
    ]
    metrics["setup_s"] = statistics.median(
        calibrated(rep.setup_wall_s, rep.calibration_s) for rep in run.reps
    )
    return {
        "metrics": metrics,
        "inputs": inputs,
        "rep_wall_s": [rep.run_wall_s for rep in timed],
    }


def measure_per_layer(run: Run) -> Dict[str, Any]:
    """``--trace 1``: on the workload's own design at the seed, one hub-off,
    one hub-on and one profiled rep, which must agree on the whole
    simulated outcome; the two other designs for the matrix; the micro
    ledger once."""
    workload = run.workload
    off = run.rep(run.seed, hub=False, verify=True)
    on = run.rep(run.seed, hub=True)
    require_same_outcome(workload, off, on, "the hub-on rep")
    profiler = cProfile.Profile()
    profiled = run.rep(run.seed, profiler=profiler)
    require_same_outcome(workload, off, profiled, "the profiled rep")
    matrix = {
        design: off if design == workload.design
        else run.rep(run.seed, design=design, hub=False)
        for design in DESIGNS
    }
    metrics = {
        **ledger.counter_ledger(workload, off),
        **ledger.hub_ledger(off, on),
        **ledger.profile_ledger(profiler, workload.ops),
        **ledger.matrix_ledger(matrix),
        **ledger.micro_ledger(run.calibrator, run.spans),
    }
    del metrics["host_calls_per_op"]
    metrics.update(ledger.span_ledger(run.spans))
    return {
        "metrics": metrics,
        "rep_wall_s": [rep.run_wall_s for rep in run.reps],
        "spans": run.spans.records,
        "trace_events": chrome_trace(on.result.observability)["traceEvents"]
        + run.spans.chrome_events(SPANS_PID),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Measure one workload; returns the full record of the run."""
    run = Run(WORKLOADS[name], seed)
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": True, "check_failure": None, "metrics": {}, "rep_wall_s": [],
    }
    try:
        record.update(measure_per_layer(run) if trace else measure_end_to_end(run, seconds))
    except CheckFailure as failure:
        record["correct"] = False
        record["check_failure"] = str(failure)
    else:
        units = {
            metric["name"]: metric["unit"]
            for metric in CONTRACT["per_layer" if trace else "end_to_end"]
        }
        if set(units) != set(record["metrics"]):
            raise RuntimeError(
                "metrics measured and metrics in BENCHMARK.json differ: "
                f"{sorted(set(units) ^ set(record['metrics']))}"
            )
        record["metrics"] = {
            metric: {"value": record["metrics"][metric], "unit": units[metric]}
            for metric in units
        }
    record["reps"] = [
        {"design": rep.design, "seed": rep.seed, "hub": rep.hub,
         "setup_wall_s": rep.setup_wall_s, "run_wall_s": rep.run_wall_s,
         "calibration_s": rep.calibration_s}
        for rep in run.reps
    ]
    record["attempted"] = max(run.attempted, 1)
    record["failed"] = run.failed
    record["host"] = host_block(run.calibrator, record["rep_wall_s"], run.elapsed_s)
    return record


def _clock(metric: str) -> str:
    return next(clock for prefix, clock in _CLOCKS if metric.startswith(prefix))


def print_record(record: Dict[str, Any]) -> None:
    """The labelled table, then the result object as the last line."""
    host = record["host"]
    print(
        f"nambench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} reps={host['reps']} "
        f"wall={host['total_wall_s']:.1f}s failed={record['failed']}/{record['attempted']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<10} [{_clock(name)}]")
    for number, summary in enumerate(record.get("inputs", ())):
        print(
            f"  input {number}: {summary['samples']} samples, the slowest "
            f"{summary['tail_samples']} in the tail; p99 {summary['sim_p99_us']:.2f} us, "
            f"{summary['sim_kops_per_s']:.1f} ops/ms, gmean {summary['sim_gmean_us']:.2f} us"
        )
    print(
        f"  host: python {host['python']}, {host['nproc']} cpus, calibration "
        f"median {host['calibration_median_s'] * 1e3:.1f} ms, spread "
        f"{host['calibration_spread']:.1%}"
    )
    if host["noisy"]:
        print(
            f"nambench: WARNING noisy host: calibration spread "
            f"{host['calibration_spread']:.1%} within this run", file=sys.stderr,
        )
    if record["check_failure"]:
        print(f"nambench: CHECK FAILED: {record['check_failure']}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_everything(out: Path, seed: int, seeds: int, seconds: int) -> int:
    """``--out``: every workload, each run in its own process."""
    started = time.perf_counter()
    scratch = out.with_name(out.name + ".record")
    runs = []
    trace_events: List[Dict[str, Any]] = []
    jobs = [(name, seed + k, 0) for k in range(seeds) for name in WORKLOADS]
    jobs += [(name, seed, 1) for name in WORKLOADS]
    for name, job_seed, trace in jobs:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(job_seed), "--seconds", str(seconds),
             "--trace", str(trace), "--record", str(scratch)],
            check=False,
        )
        if not scratch.exists():
            print(f"nambench: {name} seed {job_seed} left no record", file=sys.stderr)
            return 1
        record = json.loads(scratch.read_text())
        scratch.unlink()
        offset = list(WORKLOADS).index(name)
        for event in record.pop("trace_events", ()):
            # One block of process ids per workload: client ids repeat.
            event["pid"] += offset * 1_000 if event["pid"] < SPANS_PID else offset
            event.setdefault("args", {})["workload"] = name
            trace_events.append(event)
        runs.append(record)
    out.write_text(
        json.dumps(
            {"nambench": 1, "seed": seed, "seeds": seeds, "seconds": seconds,
             "total_wall_s": time.perf_counter() - started, "runs": runs},
            indent=1,
        )
    )
    out.with_name("trace.json").write_text(
        json.dumps({"traceEvents": trace_events, "displayTimeUnit": "ns"})
    )
    print(f"nambench: wrote {out} and {out.with_name('trace.json')}")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also write the run's full record here (what --out reads)")
    parser.add_argument("--out", type=Path, help="run everything; write one ledger file")
    parser.add_argument("--seeds", type=int, default=1,
                        help="with --out: seeds per workload, counted up from --seed")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(args.compare[0], args.compare[1], CONTRACT)
    if args.out:
        return run_everything(args.out, args.seed, args.seeds, args.seconds)
    if not args.workload:
        parser.error("one of --workload, --out, --compare is required")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.record:
        args.record.write_text(json.dumps(record))
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
