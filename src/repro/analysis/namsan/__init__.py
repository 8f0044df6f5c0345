"""namsan — static analysis + dynamic sanitizers for the simulated fabric.

Three engines keep the simulated RDMA fabric honest:

* the **linter** (:mod:`repro.analysis.namsan.linter`) enforces rules
  N01-N07 over the source tree with pure ``ast`` analysis — seeded
  determinism, lock acquire/release pairing, accessor-only region
  access, the closed error taxonomy, no swallowed fault errors, sim-time
  observability stamps, and (N07, interprocedural) freedom from
  cross-function lock-order cycles plus lease/retry-budget consistency.
  N02 and N07 are one analysis, :mod:`repro.analysis.namsan.locks`: one
  walk per function feeds both;

* the **sanitizer** (:mod:`repro.analysis.namsan.sanitizer`) replays a
  trace of remote-memory access events through a vector-clock
  happens-before model and reports TSan-style data races between
  unsynchronized remote writes;

* the **schedule explorer** (:mod:`repro.analysis.namsan.explore`)
  systematically enumerates event interleavings of 2-3 concurrent
  clients through the simulator's scheduler hook, checking the B-link
  structural verifier and the race sanitizer on every explored schedule.

``python -m repro.namsan`` exposes all three from the command line, and
the ``--namsan`` pytest flag (see
:mod:`repro.analysis.namsan.pytest_plugin`) runs the sanitizer
automatically over every cluster a test builds.

See ``docs/namsan.md`` for the rule catalog, the race-detector model,
and the explorer's budgets and scenarios.
"""

from repro.analysis.namsan.events import AccessEvent, TraceCollector
from repro.analysis.namsan.explore import (
    SCENARIOS,
    ControlledScheduler,
    ExploreReport,
    ScheduleViolation,
    explore,
)
from repro.analysis.namsan.linter import (
    RULE_DESCRIPTIONS,
    RULE_IDS,
    Violation,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.namsan.locks import check_deadlocks
from repro.analysis.namsan.sanitizer import RaceDetector, RaceReport, detect_races

__all__ = [
    "AccessEvent",
    "TraceCollector",
    "Violation",
    "RULE_DESCRIPTIONS",
    "RULE_IDS",
    "check_deadlocks",
    "lint_file",
    "lint_paths",
    "lint_source",
    "RaceDetector",
    "RaceReport",
    "detect_races",
    "ControlledScheduler",
    "ExploreReport",
    "ScheduleViolation",
    "SCENARIOS",
    "explore",
]
