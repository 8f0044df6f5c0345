"""A linearizability checker for operation histories.

:func:`check_history` decides whether a history of :class:`Op` records could
have come from an index that executes every operation atomically at one
instant between its invocation and its response. The sequential
specification is a sorted multimap, written here from the documented
semantics of the B-link tree's operations and sharing no code with it:

* ``insert(key, payload)`` appends: a duplicate lands after the entries
  already under its key;
* ``update(key, payload)`` and ``delete(key)`` act on the first live entry
  under *key* and return whether there was one;
* ``lookup(key)`` returns the live payloads. The order of duplicates under
  one key is not part of the specification: payloads compare as a
  multiset;
* ``range_scan(low, high)`` is not atomic. It counts as one read per key in
  ``[low, high)`` (the keys it returned and the keys it skipped), each of
  which may take effect anywhere in the scan's invoke-response interval;
* an operation that ended in a typed error (``TimeoutError_``,
  ``AdmissionRejectedError``), or whose ``responded_at`` is None, took
  effect zero or one times, at any time after it was invoked: its result
  is not checked, and a lookup or scan that ended so is dropped.

Linearizability is local, so the search (Wing and Gong's, memoised on the
model state and the set of operations already placed) runs one key at a
time. Operation *a* precedes *b* when *a* responded no later than *b* was
invoked: every remote step takes positive simulated time, so what an
operation does lies strictly inside its interval. Keys that no operation
writes are checked in bulk against the initial contents.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import accumulate
from operator import or_
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import AdmissionRejectedError, TimeoutError_
from repro.workloads.metrics import Op

__all__ = ["check_history"]

WRITES = ("insert", "update", "delete")
State = Tuple[int, ...]
Pairs = Iterable[Tuple[int, int]]
#: One op's part in one key's history: the op, its kind (a write method or
#: ``"read"``), its payload or the sorted payloads it read, and whether it settled.
Entry = Tuple[Op, str, Any, bool]


def check_history(
    ops: Iterable[Op], initial: Pairs, final: Optional[Pairs] = None
) -> List[Tuple[int, List[Op]]]:
    """The keys whose history cannot be linearized, each with its ops in
    invoke order (a scan narrowed to that key's pairs); empty when the
    history is linearizable. *initial* holds the ``(key, payload)`` pairs
    before the first op; *final*, if given, is a full scan taken after the
    last one, checked as a read of every key."""
    start: Dict[int, List[int]] = defaultdict(list)
    for key, payload in initial:
        start[key].append(payload)
    point: Dict[int, List[Op]] = defaultdict(list)
    scans: List[Op] = []
    for op in ops:
        if op.method not in WRITES + ("lookup", "range_scan"):
            raise ValueError(f"no model for {op.method!r}")
        if op.method == "range_scan":
            if _settled(op):
                scans.append(op)
        elif op.method in WRITES or _settled(op):
            point[op.args[0]].append(op)
    if final is not None:  # a scan of everything after everything
        scans.append(Op(-1, "range_scan", (-math.inf, math.inf), math.inf, math.inf, list(final)))
    written = {key for key, key_ops in point.items() if any(op.method in WRITES for op in key_ops)}
    # A key no op writes must read as it started. Scans are compared with
    # the initial pairs in bulk; a key that differs anywhere joins the search.
    suspect = {
        key for key, key_ops in point.items()
        if key not in written
        and any(sorted(op.result) != sorted(start.get(key, ())) for op in key_ops)
    }
    steady = sorted((key, p) for key, ps in start.items() if key not in written for p in ps)
    steady_keys = [key for key, _ in steady]
    failures: Dict[int, List[Op]] = defaultdict(list)
    for op in scans:
        low, high = op.args
        for key in {key for key, _ in op.result if not low <= key < high}:
            failures[key].append(_narrowed(op, key))
        read = sorted(pair for pair in op.result if pair[0] not in written)
        want = steady[bisect_left(steady_keys, low):bisect_left(steady_keys, high)]
        if read != want:
            diff = Counter(read)
            diff.subtract(want)
            suspect.update(key for (key, _), count in diff.items() if count)
    searched = sorted(written | suspect)
    entries: Dict[int, List[Entry]] = {key: [] for key in searched}
    for key in searched:
        for op in point.get(key, ()):
            if op.method == "lookup":
                entries[key].append((op, "read", tuple(sorted(op.result)), True))
            else:
                payload = op.args[1] if op.method != "delete" else None
                entries[key].append((op, op.method, payload, _settled(op)))
    for op in scans:
        low, high = op.args
        keys = searched[bisect_left(searched, low):bisect_left(searched, high)]
        got: Dict[int, List[int]] = {key: [] for key in keys}
        for key, payload in op.result:
            if key in got:
                got[key].append(payload)
        for key in keys:
            entries[key].append((op, "read", tuple(sorted(got[key])), True))
    for key in searched:
        entries[key].sort(key=lambda entry: (entry[0].invoked_at, _deadline(entry)))
        if not _linearizable(entries[key], tuple(start.get(key, ()))):
            failures[key].extend(
                _narrowed(op, key) if op.method == "range_scan" else op
                for op, _, _, _ in entries[key]
            )
    return [
        (key, sorted(key_ops, key=lambda op: op.invoked_at))
        for key, key_ops in sorted(failures.items())
    ]


def _settled(op: Op) -> bool:
    """Whether *op* responded with a result rather than a typed error."""
    return op.responded_at is not None and not isinstance(
        op.result, (TimeoutError_, AdmissionRejectedError)
    )


def _deadline(entry: Entry) -> float:
    """When *entry* took effect at the latest: never, for an unsettled op."""
    op, _, _, settled = entry
    return op.responded_at if settled and op.responded_at is not None else math.inf


def _narrowed(scan: Op, key: int) -> Op:
    return replace(scan, result=[pair for pair in scan.result if pair[0] == key])


def _step(kind: str, value: Any, settled: bool, result: Any, state: State) -> Optional[State]:
    """The state after one op, or None if it cannot return *result* in *state*."""
    if kind == "insert":
        return state + (value,)
    if kind == "read":
        return state if tuple(sorted(state)) == value else None
    if settled and result != bool(state):
        return None
    if not state:
        return state
    return ((value,) if kind == "update" else ()) + state[1:]


def _linearizable(entries: List[Entry], start: State) -> bool:
    """Wing and Gong's search over one key's entries, sorted by invoke time
    and deadline, memoised on (state, placed set). An entry must follow every
    entry whose deadline is no later than its invocation. A read that may go
    next and holds goes next without branching: placing it first never rules
    out an order that exists."""
    invoked = [op.invoked_at for op, _, _, _ in entries]
    firsts = [0] * (len(entries) + 1)
    for i, deadline in enumerate(map(_deadline, entries)):
        if deadline < math.inf:  # else no op need follow it
            firsts[bisect_left(invoked, deadline)] |= 1 << i
    preds = [mask & ~(1 << j) for j, mask in enumerate(accumulate(firsts, or_))]
    required = sum(1 << i for i, entry in enumerate(entries) if entry[3])
    seen: Set[Tuple[State, int]] = set()
    stack = [(start, 0)]
    while stack:
        state, placed = stack.pop()
        if placed & required == required:
            return True
        if (state, placed) in seen:
            continue
        seen.add((state, placed))
        moves: List[Tuple[State, int]] = []
        for i in range((~placed & (placed + 1)).bit_length() - 1, len(entries)):
            bit = 1 << i
            if placed & bit:
                continue
            if preds[i] & ~placed:
                break  # so is every later entry: they were invoked no earlier
            op, kind, value, settled = entries[i]
            after = _step(kind, value, settled, op.result, state)
            if after is None:
                continue
            if kind == "read":
                moves = [(after, placed | bit)]
                break
            moves.append((after, placed | bit))
        stack.extend(moves)
    return False
