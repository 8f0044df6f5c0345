"""Vector clocks and the fabric's happens-before model.

The model mirrors how the index protocols actually synchronize:

* **Program order** — each actor's accesses are ordered among
  themselves. An actor is one thread of execution as the fabric sees it:
  a compute server issuing one-sided verbs, or a memory server's RPC
  worker pool (workers on one server are collapsed into one actor; the
  simulator interleaves them at yield points, but their conflicts are
  governed by the same local locks, so collapsing only *adds* order and
  can never manufacture a race).

* **Atomic words are synchronization variables** — every 8-byte word
  that is ever the target of a CAS or FETCH_AND_ADD (lock/version words,
  allocation words, root pointer words) carries its own clock. An atomic
  access is a full fence on that word: the actor acquires the word's
  clock, then releases its own into it. This is what orders
  lock-release → lock-acquire, FAA page allocation, and CAS root swings.

* **A locked page write-back is a release store** — ``unlock_write``
  re-writes the whole page, version word included; a plain WRITE whose
  byte range covers a known synchronization word therefore releases the
  writer's clock into that word (but acquires nothing). This is the edge
  that lets a lease *steal* (CAS on the same word) see everything a
  crashed holder managed to write before dying, so recovery is not
  misreported as a race.

* **A write's leading word is presumed a version word** — pages carry
  their version word in their first 8 bytes, so a plain WRITE release
  stores into the word at its own start offset even before any atomic
  has touched it. This is the publication edge for freshly allocated
  split siblings: the allocator plain-writes the initial page image
  (version 0, legitimately unlocked — the page is unreachable), installs
  the separator under the parent's lock, and the sibling's first locker
  CASes on the very version word that initializing write stored.
  Because plain writes never *acquire*, the presumption cannot hide a
  race between two unsynchronized writers.

Plain READs and WRITEs create no other edges. Two overlapping accesses
by different actors with at least one plain WRITE and no happens-before
path between them are a data race — exactly the TSan definition, with
atomics exempt because they *are* the synchronization vocabulary.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Tuple

__all__ = ["VectorClock", "SyncState"]


class VectorClock:
    """A sparse vector clock: actor -> logical time."""

    __slots__ = ("_clock",)

    def __init__(self) -> None:
        self._clock: Dict[str, int] = {}

    def tick(self, actor: str) -> int:
        """Advance *actor*'s own component; returns the new value."""
        value = self._clock.get(actor, 0) + 1
        self._clock[actor] = value
        return value

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum (acquire *other*'s knowledge)."""
        mine = self._clock
        for actor, value in other._clock.items():
            if value > mine.get(actor, 0):
                mine[actor] = value

    def dominates(self, actor: str, clock_value: int) -> bool:
        """True if an event stamped (*actor*, *clock_value*) happens-before
        the point in time this clock represents."""
        return clock_value <= self._clock.get(actor, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{a}:{c}" for a, c in sorted(self._clock.items()))
        return f"VC({inner})"


class SyncState:
    """Per-word synchronization clocks, indexed for range queries.

    Words become synchronization variables lazily — the first time an
    atomic touches them, or a plain write starts at them (the presumed
    version word). Plain writes then query which known words fall inside
    their byte range (a bisect over a per-server sorted offset list,
    cheap because page writes overlap at most a few words).
    """

    __slots__ = ("_words", "_offsets")

    def __init__(self) -> None:
        self._words: Dict[Tuple[int, int], VectorClock] = {}
        self._offsets: Dict[int, List[int]] = {}

    def word(self, server: int, offset: int) -> VectorClock:
        """The clock of sync word (*server*, *offset*), created on demand."""
        key = (server, offset)
        clock = self._words.get(key)
        if clock is None:
            clock = self._words[key] = VectorClock()
            insort(self._offsets.setdefault(server, []), offset)
        return clock

    def words_in_range(self, server: int, offset: int, length: int) -> List[VectorClock]:
        """Clocks of every known sync word inside [offset, offset+length)."""
        offsets = self._offsets.get(server)
        if not offsets:
            return []
        end = offset + length
        found: List[VectorClock] = []
        index = bisect_left(offsets, offset)
        while index < len(offsets) and offsets[index] < end:
            found.append(self._words[(server, offsets[index])])
            index += 1
        return found
