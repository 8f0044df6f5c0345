"""TSan-style race detection over remote-memory access traces.

:class:`RaceDetector` replays :class:`~repro.analysis.namsan.events.AccessEvent`
streams through the happens-before model of :mod:`repro.analysis.namsan.hb`
and reports every pair of overlapping accesses by different actors where at
least one side is a plain WRITE and neither happens-before the other.

What is — deliberately — *not* a race:

* **atomics** (CAS / FETCH_AND_ADD): they are the synchronization
  vocabulary of the protocols (lock words, allocation words, root
  swings) and are modeled as fences, not data accesses;
* **optimistic page reads**: the B-link protocol's readers never lock —
  they validate version words and restart — so read/write pairs are
  only reported when ``report_read_races=True`` (off by default);
* **same-actor pairs**: program order already orders them.

A detected race therefore means a *write* protocol violation: somebody
mutated remote bytes without holding the synchronization the rest of the
system agreed on — precisely the class of bug one-sided RDMA protocols
make easy to write and hard to see (Brock et al.).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.analysis.namsan.events import (
    KIND_ATOMIC,
    KIND_READ,
    KIND_WRITE,
    AccessEvent,
)
from repro.analysis.namsan.hb import SyncState, VectorClock

__all__ = ["RaceReport", "RaceDetector", "detect_races"]

#: Stop appending reports after this many races; a broken accessor would
#: otherwise conflict with every later writer and flood the output.
MAX_REPORTS = 64


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting, unordered accesses to overlapping remote bytes."""

    first: AccessEvent
    second: AccessEvent

    @property
    def server(self) -> int:
        return self.second.server

    def describe(self) -> str:
        lo = max(self.first.offset, self.second.offset)
        hi = min(self.first.end, self.second.end)
        return (
            f"data race on server {self.server} bytes [{lo:#x}, {hi:#x}): "
            f"{self.first.describe()} is unordered with {self.second.describe()}"
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass
class _Cell:
    """Access history of one distinct (offset, length) byte range."""

    offset: int
    length: int
    #: Last plain write per actor: actor -> (own-clock stamp, event).
    writes: Dict[str, Tuple[int, AccessEvent]] = field(default_factory=dict)
    #: Last plain read per actor (kept only when read races are on).
    reads: Dict[str, Tuple[int, AccessEvent]] = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.offset + self.length


class RaceDetector:
    """Online happens-before race detector (feed events in trace order)."""

    def __init__(self, report_read_races: bool = False) -> None:
        self.report_read_races = report_read_races
        self.races: List[RaceReport] = []
        self.events_seen = 0
        self._clocks: Dict[str, VectorClock] = {}
        self._sync = SyncState()
        # Per server: cells grouped by start offset (several lengths may
        # share one start), plus a sorted list of starts and the widest
        # length seen, for overlap range queries.
        self._cells: Dict[int, Dict[int, Dict[int, _Cell]]] = {}
        self._starts: Dict[int, List[int]] = {}
        self._max_length: Dict[int, int] = {}

    # -- driving -------------------------------------------------------------

    def feed(self, event: AccessEvent) -> None:
        """Process one event (events must arrive in ``seq`` order)."""
        self.events_seen += 1
        actor_clock = self._clocks.get(event.actor)
        if actor_clock is None:
            actor_clock = self._clocks[event.actor] = VectorClock()
        # Stamp the event first so a release in the same step covers it.
        stamp = actor_clock.tick(event.actor)
        if event.kind == KIND_ATOMIC:
            # Full fence on the word: acquire, then release.
            word = self._sync.word(event.server, event.offset)
            actor_clock.join(word)
            word.join(actor_clock)
        elif event.kind == KIND_WRITE:
            # Release store into any sync word the range covers (a locked
            # page write-back rewrites its own version word). The *leading*
            # word is presumed a version word even before any atomic has
            # touched it — pages carry their version word at offset 0, and
            # this is the publication edge for freshly allocated siblings:
            # init-write, install separator, first locker CASes on the
            # version the init wrote. Writes never *acquire*, so two
            # unsynchronized writers still race.
            self._sync.word(event.server, event.offset).join(actor_clock)
            for word in self._sync.words_in_range(
                event.server, event.offset, event.length
            ):
                word.join(actor_clock)
            self._check_and_record(event, actor_clock, stamp, is_write=True)
        elif event.kind == KIND_READ:
            if self.report_read_races:
                self._check_and_record(event, actor_clock, stamp, is_write=False)

    def feed_all(self, events: Iterable[AccessEvent]) -> "RaceDetector":
        for event in events:
            self.feed(event)
        return self

    @property
    def ok(self) -> bool:
        return not self.races

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.races)} RACES"
        return (
            f"[namsan sanitize] {status}: {self.events_seen} events, "
            f"{sum(len(group) for by_start in self._cells.values() for group in by_start.values())} ranges, "
            f"{len(self._clocks)} actors"
        )

    # -- internals -----------------------------------------------------------

    def _check_and_record(
        self,
        event: AccessEvent,
        actor_clock: VectorClock,
        stamp: int,
        is_write: bool,
    ) -> None:
        for cell in self._overlapping(event):
            self._check_cell(event, actor_clock, cell, is_write)
        cell = self._cell_for(event)
        if is_write:
            cell.writes[event.actor] = (stamp, event)
        else:
            cell.reads[event.actor] = (stamp, event)

    def _check_cell(
        self,
        event: AccessEvent,
        actor_clock: VectorClock,
        cell: _Cell,
        is_write: bool,
    ) -> None:
        for actor, (stamp, prior) in cell.writes.items():
            if actor == event.actor:
                continue
            if not actor_clock.dominates(actor, stamp):
                self._report(prior, event)
        if is_write and self.report_read_races:
            for actor, (stamp, prior) in cell.reads.items():
                if actor == event.actor:
                    continue
                if not actor_clock.dominates(actor, stamp):
                    self._report(prior, event)

    def _report(self, first: AccessEvent, second: AccessEvent) -> None:
        if len(self.races) < MAX_REPORTS:
            self.races.append(RaceReport(first=first, second=second))

    def _cell_for(self, event: AccessEvent) -> _Cell:
        by_start = self._cells.setdefault(event.server, {})
        group = by_start.get(event.offset)
        if group is None:
            group = by_start[event.offset] = {}
            insort(self._starts.setdefault(event.server, []), event.offset)
        cell = group.get(event.length)
        if cell is None:
            cell = group[event.length] = _Cell(event.offset, event.length)
            if event.length > self._max_length.get(event.server, 0):
                self._max_length[event.server] = event.length
        return cell

    def _overlapping(self, event: AccessEvent) -> List[_Cell]:
        """Every known cell whose byte range intersects *event*'s."""
        starts = self._starts.get(event.server)
        if not starts:
            return []
        by_start = self._cells[event.server]
        reach = self._max_length.get(event.server, 0)
        # A cell starting before (event.offset - widest length) cannot
        # reach into the event's range; one starting at/after event.end
        # cannot either.
        index = bisect_left(starts, event.offset - reach)
        found: List[_Cell] = []
        end = event.end
        while index < len(starts) and starts[index] < end:
            for cell in by_start[starts[index]].values():
                if event.offset < cell.end:
                    found.append(cell)
            index += 1
        return found


def detect_races(
    events: Iterable[AccessEvent],
    report_read_races: bool = False,
) -> List[RaceReport]:
    """Run the detector over *events* and return the race reports."""
    detector = RaceDetector(report_read_races=report_read_races)
    detector.feed_all(events)
    return detector.races
