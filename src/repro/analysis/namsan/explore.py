"""Bounded systematic schedule exploration for the lock/failover protocols.

The deterministic simulator fires same-instant events in scheduling
order, so every test run sees exactly *one* interleaving. This module
drives the kernel's scheduler hook (:attr:`repro.sim.core.Simulator.scheduler`)
to enumerate *other* interleavings of 2-3 concurrent client processes:
whenever two or more events are ready at the same instant — lock CAS vs.
lock CAS, page write-back vs. lease-steal probe, parallel READ
completions — the controlled scheduler picks which fires, and the
explorer systematically revisits those choice points with different
picks.

Exploration is a depth-first walk over *decision maps*: a schedule is a
sparse ``{choice point -> pick}`` override of the default order (pick 0 —
the untouched heap order — everywhere else). Each executed run
contributes new schedules by overriding choice points *after* its own
last override; because a run passes thousands of choice points (most of
them boring READ-completion order), the explorer samples up to ``depth``
branch points spread evenly across that suffix, so branching reaches the
mid-run points where the lock CASes actually contend. Bounded by

* ``depth`` — how many choice points of a run may spawn branches (each
  trying up to two non-default picks), and
* ``runs`` — the total number of scenario executions.

Pruning is DPOR/sleep-set flavored: two schedules that produce the same
ordered sequence of *synchronization operations* (the atomic CAS/FAA
events the :class:`~repro.analysis.namsan.events.TraceCollector`
captures, which is where lock hand-offs, steals, and failover promotions
live) are equivalent for the protocol, so a run whose sync signature was
already seen is not expanded further.

Every explored schedule is checked against two oracles:

* the B-link structural verifier (:func:`repro.verify_index`), plus
  read-your-writes lookups of everything the scenario inserted, and
* the happens-before race sanitizer over the collected trace.

Scenarios (see :data:`SCENARIOS`): ``lock-steal`` (a client dies inside a
leaf critical section; a survivor lease-steals), ``split-under-insert``
(three clients force concurrent leaf splits), and ``lock-bypass`` (a
writer holds a leaf lock while a second actor touches the same leaf —
with ``mutate_guard=True`` the second actor's write path skips the lock
protocol, the PR 3 regression, and the explorer must rediscover the race;
with the guard intact it must report zero violations).
"""

from __future__ import annotations

import random
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    FineGrainedIndex,
    RetryConfig,
    verify_index,
)
from repro.analysis.namsan.events import TraceCollector
from repro.analysis.namsan.sanitizer import RaceDetector
from repro.btree.pointers import RemotePointer
from repro.errors import AnalysisError, ConfigurationWarning, ReproError
from repro.index.accessors import RemoteAccessor
from repro.workloads import generate_dataset

__all__ = [
    "ControlledScheduler",
    "TieShuffle",
    "shuffled_ties",
    "ScheduleViolation",
    "ExploreReport",
    "explore",
    "SCENARIOS",
]

DEFAULT_RUNS = 48
DEFAULT_DEPTH = 10


class ControlledScheduler:
    """The tie-breaking policy the explorer plugs into the simulator.

    Replays *decisions* — a sparse ``{choice point -> pick index}`` map
    (a sequence is accepted as shorthand for overriding points 0..n-1)
    — and defaults to index 0, the plain heap order, everywhere else.
    Records the arity of and the pick made at every choice point, which
    is what the explorer expands into new decision maps.

    *window* (virtual seconds) is how far apart two events may be and
    still count as concurrent: the fabric's NIC serialization gives
    almost every event a distinct timestamp, so exact-instant ties are
    rare — the window treats events within a verb latency of each other
    as reorderable, which is exactly the jitter a real network exhibits."""

    #: Default reorder window: a couple of microseconds, on the order of
    #: one one-sided verb's fabric latency.
    DEFAULT_WINDOW_S = 2e-6

    def __init__(
        self,
        decisions: Union[Mapping[int, int], Sequence[int]] = (),
        window: float = DEFAULT_WINDOW_S,
    ) -> None:
        if isinstance(decisions, Mapping):
            self.decisions = dict(decisions)
        else:
            self.decisions = dict(enumerate(decisions))
        self.window = window
        self.counts: List[int] = []
        self.choices: List[int] = []

    def choose(self, at: float, ready: List[Any]) -> int:
        point = len(self.choices)
        arity = len(ready)
        pick = min(self.decisions.get(point, 0), arity - 1)
        self.counts.append(arity)
        self.choices.append(pick)
        return pick


class TieShuffle:
    """A seeded uniform pick among the events ready at exactly one instant
    (``window = 0``): the same-instant order the model leaves undefined,
    drawn at random instead of taken in scheduling order. Events at
    distinct instants keep their order, so no cause ever fires late."""

    window = 0.0

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, at: float, ready: List[Any]) -> int:
        return self._rng.randrange(len(ready))


@contextmanager
def shuffled_ties(seed: Optional[int]) -> Iterator[None]:
    """Build every :class:`Cluster` inside the block under a fresh
    ``TieShuffle(seed)``, so each cell draws the same stream whatever ran
    before it; ``None`` changes nothing (``gate NAME --ties K``)."""
    if seed is None:
        yield
        return
    previous = Cluster.new_scheduler
    Cluster.new_scheduler = lambda: TieShuffle(seed)
    try:
        yield
    finally:
        Cluster.new_scheduler = previous


@dataclass(frozen=True)
class ScheduleViolation:
    """One oracle failure on one explored schedule."""

    kind: str                     # "race" | "verify" | "lost-update" | "error"
    detail: str
    #: Sorted ``(choice point, pick)`` overrides of the default order.
    schedule: Tuple[Tuple[int, int], ...] = ()

    def describe(self) -> str:
        overrides = ",".join(f"{p}:{v}" for p, v in self.schedule) or "default"
        return f"[schedule {overrides}] {self.kind}: {self.detail}"


@dataclass
class ExploreReport:
    """The outcome of one bounded exploration."""

    scenario: str
    runs_executed: int = 0
    schedules_distinct: int = 0    # distinct sync-op signatures observed
    pruned: int = 0                # runs not expanded (signature repeat)
    frontier_exhausted: bool = False
    violations: List[ScheduleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"[namsan explore] {self.scenario}: {status} over "
            f"{self.runs_executed} run(s), {self.schedules_distinct} distinct "
            f"schedule(s), {self.pruned} pruned"
            + (", frontier exhausted" if self.frontier_exhausted else "")
        )


@dataclass
class _Outcome:
    counts: List[int]
    choices: List[int]
    signature: Tuple[Tuple[str, int, int, str], ...]
    violations: List[ScheduleViolation]


class _Scenario:
    """One explorable workload: builds a fresh cluster per run, executes
    the concurrent phase under the controlled scheduler, and applies the
    oracles. Subclasses implement :meth:`_execute`."""

    name = ""
    description = ""
    #: Whether ``mutate_guard`` changes this scenario's behavior.
    mutable = False

    def run(
        self, decisions: Mapping[int, int], mutate_guard: bool
    ) -> _Outcome:
        scheduler = ControlledScheduler(decisions)
        collector = TraceCollector()
        violations: List[ScheduleViolation] = []
        with warnings.catch_warnings():
            # Deliberately tight leases are the scenario's point; the
            # static side of that trade-off is N07's business.
            warnings.simplefilter("ignore", ConfigurationWarning)
            try:
                violations.extend(
                    self._execute(scheduler, collector, mutate_guard)
                )
            except ReproError as exc:
                violations.append(
                    ScheduleViolation(
                        "error", f"{type(exc).__name__}: {exc}"
                    )
                )
        detector = RaceDetector().feed_all(collector.events)
        for race in detector.races[:3]:
            violations.append(ScheduleViolation("race", race.describe()))
        signature = tuple(
            (event.actor, event.server, event.offset, event.verb)
            for event in collector.events
            if event.kind == "atomic"
        )
        return _Outcome(scheduler.counts, scheduler.choices, signature, violations)

    def _execute(
        self,
        scheduler: ControlledScheduler,
        collector: TraceCollector,
        mutate_guard: bool,
    ) -> List[ScheduleViolation]:
        raise NotImplementedError

    # -- shared oracle helpers -------------------------------------------

    def _check_tree(self, cluster, index) -> List[ScheduleViolation]:
        report = verify_index(cluster, index)
        if report.ok:
            return []
        return [
            ScheduleViolation("verify", "; ".join(report.violations[:3]))
        ]

    def _check_lookups(
        self, cluster, index, compute_server, expected
    ) -> List[ScheduleViolation]:
        session = index.session(compute_server)
        missing = []
        for key, value in expected:
            found = cluster.execute(session.lookup(key))
            if value not in (found or []):
                missing.append(f"key {key}: expected {value}, got {found}")
        if missing:
            return [ScheduleViolation("lost-update", "; ".join(missing[:3]))]
        return []


class _LockStealScenario(_Scenario):
    name = "lock-steal"
    description = (
        "a client dies inside a leaf critical section; two survivors race "
        "to lease-steal the lock and complete their inserts"
    )

    def _execute(self, scheduler, collector, mutate_guard):
        cluster = Cluster(
            ClusterConfig(
                num_memory_servers=2,
                seed=19,
                retry=RetryConfig(lock_lease_s=0.0005),
            )
        )
        dataset = generate_dataset(120, gap=4)
        index = FineGrainedIndex.build(cluster, "explore", *dataset.columns())
        key = dataset.key_at(11)
        tree = index.tree_for(cluster.new_compute_server())
        raw_ptr, _leaf = cluster.execute(tree._descend_to_level(key, 0))
        pointer = RemotePointer.from_raw(raw_ptr)
        region = cluster.memory_server(pointer.server_id).region

        collector.attach(cluster)
        injector = cluster.attach_faults(FaultPlan())
        victim = cluster.new_compute_server()
        proc = cluster.spawn(index.session(victim).insert(key, 111))
        injector.register_client(victim.server_id, proc)
        deadline = cluster.now + 0.01
        while (
            cluster.now < deadline
            and not region.read_u64(pointer.offset) & 1
        ):
            cluster.run(until=cluster.now + 1e-7)
        injector.kill_compute_server(victim.server_id)

        # The concurrent phase the explorer reorders: two survivors spin
        # on the orphaned lock, both observe the lease expire, and race
        # their steal-CASes (then the loser spins on the winner).
        cluster.sim.scheduler = scheduler
        try:
            survivors = [cluster.new_compute_server() for _ in range(2)]
            procs = [
                cluster.spawn(index.session(cs).insert(key, 222 + i))
                for i, cs in enumerate(survivors)
            ]
            cluster.sim.run_until_complete(cluster.sim.all_of(procs))
        finally:
            cluster.sim.scheduler = None
        injector.quiesce()
        collector.detach()
        violations = self._check_tree(cluster, index)
        violations += self._check_lookups(
            cluster, index, survivors[0], [(key, 222), (key, 223)]
        )
        return violations


class _SplitUnderInsertScenario(_Scenario):
    name = "split-under-insert"
    description = (
        "three clients insert into the same leaf neighborhood, racing "
        "concurrent splits against each other"
    )

    def _execute(self, scheduler, collector, mutate_guard):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=7))
        dataset = generate_dataset(120, gap=4)
        index = FineGrainedIndex.build(cluster, "explore", *dataset.columns())

        # Distinct new keys between existing ones, all landing in the same
        # few leaves so splits collide (gap=4 leaves offsets 1-3 free).
        plans = [
            [(dataset.key_at(40 + j) + 1 + i, 1000 * i + j) for j in range(6)]
            for i in range(3)
        ]

        collector.attach(cluster)
        cluster.sim.scheduler = scheduler
        try:
            sessions = [
                index.session(cluster.new_compute_server()) for _ in plans
            ]

            def client(session, pairs):
                for key, value in pairs:
                    yield from session.insert(key, value)

            procs = [
                cluster.spawn(client(session, pairs))
                for session, pairs in zip(sessions, plans)
            ]
            cluster.sim.run_until_complete(cluster.sim.all_of(procs))
        finally:
            cluster.sim.scheduler = None
        collector.detach()
        checker = cluster.new_compute_server()
        expected = [pair for plan in plans for pair in plan]
        expected.append((dataset.key_at(40), 40))  # pre-loaded payload = ordinal
        violations = self._check_tree(cluster, index)
        violations += self._check_lookups(cluster, index, checker, expected)
        return violations


class _GuardBypassAccessor(RemoteAccessor):
    """The PR 3 regression, reconstructed: a leaf write path with the lock
    guard mutated out — a raw one-sided WRITE, no CAS, no version bump."""

    def write_node_unlocked(self, raw_ptr, data):
        pointer = RemotePointer.from_raw(raw_ptr)
        qp = self.compute_server.qp(pointer.server_id)
        yield from qp.write(pointer.offset, data)


class _LockBypassScenario(_Scenario):
    name = "lock-bypass"
    description = (
        "a writer holds a leaf lock while a second actor updates the same "
        "leaf; --mutate-guard removes the second actor's lock protocol"
    )
    mutable = True

    def _execute(self, scheduler, collector, mutate_guard):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=23))
        dataset = generate_dataset(120, gap=4)
        index = FineGrainedIndex.build(cluster, "explore", *dataset.columns())
        key = dataset.key_at(29)
        tree = index.tree_for(cluster.new_compute_server())
        raw_ptr, _leaf = cluster.execute(tree._descend_to_level(key, 0))
        pointer = RemotePointer.from_raw(raw_ptr)
        region = cluster.memory_server(pointer.server_id).region
        page_size = cluster.config.tree.page_size
        stale_page = bytes(region.read(pointer.offset, page_size))

        collector.attach(cluster)
        cluster.sim.scheduler = scheduler
        try:
            writer = cluster.new_compute_server()
            proc = cluster.spawn(index.session(writer).insert(key, 111))
            deadline = cluster.now + 0.01
            while (
                cluster.now < deadline
                and not region.read_u64(pointer.offset) & 1
            ):
                cluster.run(until=cluster.now + 1e-7)

            second = cluster.new_compute_server()
            if mutate_guard:
                rogue = _GuardBypassAccessor(second, cluster.config)
                cluster.execute(rogue.write_node_unlocked(raw_ptr, stale_page))
            else:
                cluster.execute(index.session(second).insert(key, 222))
            cluster.sim.run_until_complete(proc)
        finally:
            cluster.sim.scheduler = None
        collector.detach()
        if mutate_guard:
            # The mutant corrupts the leaf by construction; structural and
            # lookup oracles are vacuous — the race oracle is the check.
            return []
        violations = self._check_tree(cluster, index)
        violations += self._check_lookups(cluster, index, second, [(key, 222)])
        return violations


SCENARIOS: Dict[str, _Scenario] = {
    scenario.name: scenario
    for scenario in (
        _LockStealScenario(),
        _SplitUnderInsertScenario(),
        _LockBypassScenario(),
    )
}


def explore(
    scenario: str,
    runs: int = DEFAULT_RUNS,
    depth: int = DEFAULT_DEPTH,
    mutate_guard: bool = False,
) -> ExploreReport:
    """Explore *scenario* under the run/depth budgets; see module docs.

    Deterministic: the same arguments always walk the same schedules.
    """
    if scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise AnalysisError(f"unknown scenario '{scenario}' (known: {known})")
    if runs < 1 or depth < 0:
        raise AnalysisError("explore budgets must be positive")
    impl = SCENARIOS[scenario]
    report = ExploreReport(scenario=scenario)
    frontier: List[Dict[int, int]] = [{}]
    visited = {()}
    signatures: set = set()
    while frontier and report.runs_executed < runs:
        decisions = frontier.pop()
        outcome = impl.run(decisions, mutate_guard)
        report.runs_executed += 1
        schedule = tuple(sorted(decisions.items()))
        report.violations.extend(
            replace(violation, schedule=schedule)
            for violation in outcome.violations
        )
        if outcome.signature in signatures:
            report.pruned += 1
            continue
        signatures.add(outcome.signature)
        # Branching past this schedule's last override keeps the walk a
        # DFS over ever-larger override sets (replay up to a new branch
        # point is deterministic, so the recorded arity there is valid).
        # The eligible suffix usually holds hundreds of choice points,
        # most of them boring READ-completion ties; sampling it evenly
        # reaches the mid-run points where the lock CASes contend.
        start = max(decisions) + 1 if decisions else 0
        eligible = range(start, len(outcome.counts))
        stride = max(1, len(eligible) // depth) if depth else 1
        expansions: List[Dict[int, int]] = []
        for point in list(eligible[::stride])[:depth]:
            for pick in range(1, min(outcome.counts[point], 3)):
                candidate = dict(decisions)
                candidate[point] = pick
                key = tuple(sorted(candidate.items()))
                if key not in visited:
                    visited.add(key)
                    expansions.append(candidate)
        frontier.extend(reversed(expansions))
    report.schedules_distinct = len(signatures)
    report.frontier_exhausted = not frontier
    return report
