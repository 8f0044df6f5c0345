"""Command-line profiling harness: ``python -m repro.obs``.

Two subcommands::

    python -m repro.obs run --out-dir out/       # profile one smoke cell
    python -m repro.obs report out/snapshot.json # attributed breakdowns

``run`` executes one Figure 7/8-class workload cell on a fresh cluster
with observability enabled and writes two artifacts into ``--out-dir``:

* ``snapshot.json`` — the full JSON snapshot (metrics + span trees +
  time series + flight-recorder bundles);
* ``trace.json`` — Chrome trace-event JSON of the retained span trees
  and time-series counter tracks (``chrome://tracing`` or Perfetto).

``report`` reads a snapshot (or a single flight-recorder bundle) and
renders the top-K slowest retained operations as a critical-path
attribution table (:mod:`repro.obs.attribution`), followed by a
p50-vs-p99 diff: where a *typical* op spends its time versus where the
*tail* ops spend theirs. ``--json`` emits the same data machine-readably.
It exits non-zero when the document cannot be read or holds no retained
operation — CI's obs-smoke job is ``run`` followed by ``report``.

Every subcommand is declared once, in :data:`COMMANDS` — the table drives
argument registration, dispatch, and ``--help``, so a new verb registers
here and nowhere else (the same convention as ``python -m repro``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping

from repro.obs.attribution import (
    SEGMENTS,
    attribute_span_dict,
    span_duration,
    typical_vs_tail,
)
from repro.obs.config import ObservabilityConfig
from repro.obs.export import chrome_trace, retained_spans

SNAPSHOT_FILE = "snapshot.json"
TRACE_FILE = "trace.json"


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import run_cell
    from repro.experiments.scale import SMALL
    from repro.workloads import WorkloadSpec

    spec = WorkloadSpec(
        name="A-smoke",
        point_fraction=args.point_fraction,
        range_fraction=0.0,
        insert_fraction=1.0 - args.point_fraction,
        selectivity=0.0,
    )
    obs_config = ObservabilityConfig(
        enabled=True,
        sample_every=args.sample_every,
        slow_op_threshold_s=args.slow_op_threshold_s,
        timeseries_cadence_s=args.timeseries_cadence_s,
    )
    result = run_cell(
        design=args.design,
        spec=spec,
        num_clients=args.clients,
        scale=SMALL,
        observability=obs_config,
    )
    snapshot = result.observability
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / SNAPSHOT_FILE).write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    (out_dir / TRACE_FILE).write_text(
        json.dumps(chrome_trace(snapshot), sort_keys=True)
    )
    print(
        f"{result.design}/{result.workload}: {result.total_ops} ops in "
        f"{result.window_s:g}s of simulated time "
        f"({result.throughput:,.0f} ops/s), {result.errored_ops} errored, "
        f"{result.retries} retries"
    )
    print(
        f"spans: {len(snapshot['sampled_spans'])} sampled, "
        f"{len(snapshot['slow_spans'])} slow "
        f"(of {snapshot['ops_observed']} operations)"
    )
    print(f"wrote {SNAPSHOT_FILE}, {TRACE_FILE} to {out_dir}/")
    return 0


# -- report ---------------------------------------------------------------------


def report_data(snapshot: Mapping[str, Any], top_k: int) -> Dict[str, Any]:
    """The ``report`` verb's payload: top-K slowest ops with attribution,
    plus the typical-vs-tail (p50 vs p99) aggregate share diff."""
    rows = [
        {
            "op_id": span["op_id"],
            "name": span["name"],
            "client_id": span["client_id"],
            "duration_s": span_duration(span),
            "attribution": attribute_span_dict(span),
        }
        for span in retained_spans(snapshot)
    ]
    diff = typical_vs_tail((row["duration_s"], row["attribution"]) for row in rows)
    rows.sort(key=lambda row: row["duration_s"], reverse=True)
    return {
        "kind": "obs-report",
        "retained_ops": len(rows),
        "top": rows[:top_k],
        "diff": diff,
    }


def _print_attribution_table(rows: List[Dict[str, Any]]) -> None:
    short = [label[:12] for label in SEGMENTS]
    header = f"{'op':>8} {'type':<22} {'total_us':>9} " + " ".join(
        f"{name:>12}" for name in short
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = " ".join(
            f"{row['attribution'][label] * 1e6:>12.2f}" for label in SEGMENTS
        )
        print(
            f"{row['op_id']:>8} {row['name'][:22]:<22} "
            f"{row['duration_s'] * 1e6:>9.2f} {cells}"
        )


def _print_report(data: Mapping[str, Any]) -> None:
    print(f"retained operations: {data['retained_ops']}")
    if not data["top"]:
        print("(no retained spans — was observability enabled?)")
        return
    print(f"\ntop {len(data['top'])} slowest ops (all times in us):")
    _print_attribution_table(data["top"])
    diff = data["diff"]
    if diff:
        print(
            f"\nattribution shares, typical (fastest {diff['typical_ops']}) "
            f"vs tail (slowest {diff['tail_ops']}):"
        )
        print(f"{'segment':<18} {'p50':>8} {'p99':>8} {'delta':>8}")
        for label in SEGMENTS:
            print(
                f"{label:<18} {diff['p50_share'][label]:>8.1%} "
                f"{diff['p99_share'][label]:>8.1%} "
                f"{diff['delta'][label]:>+8.1%}"
            )


def _print_flight_bundle(bundle: Mapping[str, Any], top_k: int) -> None:
    print(
        f"flight-recorder bundle: trigger={bundle['trigger']!r} "
        f"at sim_time={bundle['sim_time']:g}"
    )
    if "detail" in bundle:
        print(f"detail: {bundle['detail']}")
    op = bundle.get("op")
    if op is not None:
        row = {
            "op_id": op["op_id"],
            "name": op["name"],
            "client_id": op["client_id"],
            "duration_s": span_duration(op),
            "attribution": bundle.get("attribution") or attribute_span_dict(op),
        }
        print("\ntriggering op (all times in us):")
        _print_attribution_table([row])
    faults = bundle.get("faults", [])
    if faults:
        print(f"\nfaults ({len(faults)}):")
        for fault in faults[-top_k:]:
            print(
                f"  t={fault['sim_time']:g} {fault['kind']} "
                f"server={fault['server_id']}"
            )
    recent = bundle.get("recent_ops", {})
    if recent:
        total = sum(len(ops) for ops in recent.values())
        print(f"\nrecent ops: {total} across {len(recent)} clients")
    verbs = bundle.get("verbs", [])
    if verbs:
        print(f"recent verbs: {len(verbs)}")


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        path = path / SNAPSHOT_FILE
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path}: cannot read ({exc})")
        return 1
    if document.get("kind") == "flight-dump":
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            _print_flight_bundle(document, args.top_k)
        return 0
    data = report_data(document, args.top_k)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _print_report(data)
    return 0 if data["retained_ops"] else 1


# -- command table --------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One registered subcommand: its name, help line, argument wiring,
    and handler. The table drives the parser — a new verb adds one row."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


def _configure_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default="obs-out", help="artifact directory")
    parser.add_argument(
        "--design",
        default="fine-grained",
        choices=("coarse-grained", "fine-grained", "hybrid"),
    )
    parser.add_argument("--clients", type=int, default=20)
    parser.add_argument("--point-fraction", type=float, default=0.9)
    parser.add_argument("--sample-every", type=int, default=16)
    parser.add_argument("--slow-op-threshold-s", type=float, default=1e-3)
    parser.add_argument(
        "--timeseries-cadence-s", type=float, default=None,
        help="sim-time sampling cadence for per-server time series",
    )


def positive_int(text: str) -> int:
    """argparse type: an int of at least 1 (a ValueError makes it exit 2)."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _configure_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "path",
        help="snapshot.json, a flight-recorder bundle, or a `run` out-dir",
    )
    parser.add_argument(
        "--top-k", type=positive_int, default=10,
        help="slowest ops to break down (default 10)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


_TABLE = [
    Command("run", "profile one smoke workload cell", _configure_run, _cmd_run),
    Command("report", "attributed latency breakdown of a snapshot or bundle",
            _configure_report, _cmd_report),
]

COMMANDS = {command.name: command for command in _TABLE}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        command_parser = sub.add_parser(command.name, help=command.help)
        command.configure(command_parser)
        command_parser.set_defaults(func=command.run)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
