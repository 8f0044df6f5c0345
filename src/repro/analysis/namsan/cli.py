"""``python -m repro.namsan`` — lint, sanitize traces, explore schedules.

Three subcommands::

    python -m repro.namsan lint src/repro            # rules N01-N07
    python -m repro.namsan sanitize trace.jsonl      # race detection
    python -m repro.namsan explore lock-steal        # schedule exploration

Exit status: 0 clean, 1 violations/races found, 2 unusable input
(``explore --expect-violations`` inverts 0/1: it is for CI legs that
mutate a guard out and *require* the explorer to rediscover the race).
With ``--github``, findings are also printed as GitHub Actions workflow
commands (``::error file=...``) so CI runs annotate the diff.

The lint help text is derived from :data:`RULE_DESCRIPTIONS`, which the
linter builds from the same rule table as :data:`RULE_IDS` — a rule
cannot be added without its description, so ``--help`` cannot go stale.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.analysis.namsan.events import load_trace, resequence
from repro.analysis.namsan.explore import (
    DEFAULT_DEPTH,
    DEFAULT_RUNS,
    SCENARIOS,
    explore,
)
from repro.analysis.namsan.linter import (
    RULE_DESCRIPTIONS,
    RULE_IDS,
    Violation,
    lint_paths,
)
from repro.analysis.namsan.sanitizer import RaceDetector
from repro.errors import AnalysisError

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _github_escape(message: str) -> str:
    return (
        message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _annotate_violation(violation: Violation) -> str:
    return (
        f"::error file={violation.path},line={violation.line},"
        f"col={violation.col + 1},title=namsan {violation.rule}::"
        f"{_github_escape(violation.message)}"
    )


def _run_lint(args: argparse.Namespace) -> int:
    rules = None
    if args.rules:
        rules = [token.strip() for token in args.rules.split(",") if token.strip()]
    violations = lint_paths(args.paths, rules=rules)
    for violation in violations:
        print(violation.describe())
        if args.github:
            print(_annotate_violation(violation))
    checked = ", ".join(rules if rules is not None else RULE_IDS)
    if violations:
        print(f"[namsan lint] {len(violations)} violation(s) ({checked})")
        return EXIT_FINDINGS
    print(f"[namsan lint] OK ({checked})")
    return EXIT_CLEAN


def _run_sanitize(args: argparse.Namespace) -> int:
    events = resequence(load_trace(args.trace))
    detector = RaceDetector(report_read_races=args.read_races)
    detector.feed_all(events)
    for index, race in enumerate(detector.races, start=1):
        print(f"race #{index}: {race.describe()}")
        if args.github:
            print(
                f"::error title=namsan race #{index}::"
                f"{_github_escape(race.describe())}"
            )
    print(detector.summary())
    return EXIT_FINDINGS if detector.races else EXIT_CLEAN


def _run_explore(args: argparse.Namespace) -> int:
    impl = SCENARIOS.get(args.scenario)
    if args.mutate_guard and impl is not None and not impl.mutable:
        raise AnalysisError(
            f"scenario '{args.scenario}' has no guard to mutate "
            "(--mutate-guard applies to: "
            + ", ".join(s for s, i in sorted(SCENARIOS.items()) if i.mutable)
            + ")"
        )
    report = explore(
        args.scenario,
        runs=args.runs,
        depth=args.depth,
        mutate_guard=args.mutate_guard,
    )
    for violation in report.violations:
        print(violation.describe())
        if args.github:
            print(
                f"::error title=namsan explore {report.scenario}::"
                f"{_github_escape(violation.describe())}"
            )
    print(report.summary())
    if args.expect_violations:
        if report.ok:
            print(
                "[namsan explore] expected violations but found none — the "
                "seeded bug was not rediscovered within the budget"
            )
            return EXIT_FINDINGS
        return EXIT_CLEAN
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.namsan",
        description="namsan: static invariant linter, remote-memory race "
        "sanitizer, and bounded schedule explorer for the repro RDMA fabric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule_help = "; ".join(
        f"{rule}: {RULE_DESCRIPTIONS[rule]}" for rule in RULE_IDS
    )
    lint = sub.add_parser(
        "lint",
        help=f"run rules {RULE_IDS[0]}-{RULE_IDS[-1]} over source "
        "files/directories",
    )
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument(
        "--rules",
        help=f"comma-separated rule subset (default all; {rule_help})",
    )
    lint.add_argument(
        "--github",
        action="store_true",
        help="also emit GitHub Actions ::error annotations",
    )
    lint.set_defaults(run=_run_lint)

    sanitize = sub.add_parser(
        "sanitize", help="replay a JSONL verb trace through the race detector"
    )
    sanitize.add_argument("trace", help="trace file written by TraceCollector.dump")
    sanitize.add_argument(
        "--read-races",
        action="store_true",
        help="also report plain read/write races (off: optimistic readers "
        "validate versions and are exempt by design)",
    )
    sanitize.add_argument(
        "--github",
        action="store_true",
        help="also emit GitHub Actions ::error annotations",
    )
    sanitize.set_defaults(run=_run_sanitize)

    scenario_help = "; ".join(
        f"{name}: {impl.description}" for name, impl in sorted(SCENARIOS.items())
    )
    explore_cmd = sub.add_parser(
        "explore",
        help="systematically explore simulator schedules for a scenario",
    )
    explore_cmd.add_argument("scenario", help=scenario_help)
    explore_cmd.add_argument(
        "--runs",
        type=int,
        default=DEFAULT_RUNS,
        help=f"scenario execution budget (default {DEFAULT_RUNS})",
    )
    explore_cmd.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_DEPTH,
        help="max branch points sampled per executed run "
        f"(default {DEFAULT_DEPTH})",
    )
    explore_cmd.add_argument(
        "--mutate-guard",
        action="store_true",
        help="run the scenario with its lock guard mutated out; the "
        "explorer must then rediscover the race (pair with "
        "--expect-violations in CI)",
    )
    explore_cmd.add_argument(
        "--expect-violations",
        action="store_true",
        help="invert the exit code: 0 if violations were found, 1 if the "
        "exploration came back clean",
    )
    explore_cmd.add_argument(
        "--github",
        action="store_true",
        help="also emit GitHub Actions ::error annotations",
    )
    explore_cmd.set_defaults(run=_run_explore)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except AnalysisError as exc:
        print(f"[namsan] error: {exc}")
        return EXIT_ERROR
