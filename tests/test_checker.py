"""The linearizability checker on hand-built histories.

Each case is a list of :class:`Op` records with sim times chosen by hand,
the initial pairs, an optional quiet final scan, and the keys the checker
must name. ``issued`` is the recorder the sequential tests elsewhere use to
turn their calls into such a history, and ``session_calls`` the calls their
drawn operations stand for.
"""

import math

import pytest

from repro import RetriesExhaustedError
from repro.workloads import Op, check_history

LOST = RetriesExhaustedError("no answer")


def issued(history, run, handle, method, *args):
    """Call ``handle.method(*args)`` through *run*, record it in *history* as
    the next op of one client, one instant after the last, and return its
    result."""
    op = Op(0, method, args, len(history), len(history))
    history.append(op)
    op.result = run(getattr(handle, method)(*args))
    return op.result


def session_calls(draws):
    """The session calls of drawn ``(op, key)`` pairs: a scan covers 40 key
    units, and inserted and updated payloads count up from 1000."""
    seq = 1000
    for method, key in draws:
        if method in ("insert", "update"):
            yield method, key, seq
            seq += 1
        elif method == "scan":
            yield ("range_scan", *sorted((key, key + 40)))
        else:
            yield method, key


CASES = {
    "concurrent reads either side of an insert": (
        [
            Op(0, "insert", (5, 50), 0, 4),
            Op(1, "lookup", (5,), 1, 2, [50]),
            Op(2, "lookup", (5,), 1, 3, []),
            Op(1, "delete", (5,), 5, 6, True),
        ],
        [], None, [],
    ),
    "a read older than one that saw the insert": (
        [
            Op(0, "insert", (5, 50), 0, 9),
            Op(1, "lookup", (5,), 1, 2, [50]),
            Op(2, "lookup", (5,), 3, 4, []),
        ],
        [], None, [5],
    ),
    "a read invoked the instant an insert responded": (
        [Op(0, "insert", (5, 50), 0, 1), Op(0, "lookup", (5,), 1, 2, [])],
        [], None, [5],
    ),
    "an errored insert seen": (
        [Op(0, "insert", (5, 50), 0, 1, LOST), Op(1, "lookup", (5,), 2, 3, [50])],
        [], None, [],
    ),
    "an errored insert absent": (
        [Op(0, "insert", (5, 50), 0, 1, LOST), Op(1, "lookup", (5,), 2, 3, [])],
        [], [], [],
    ),
    "an errored insert seen, then gone": (
        [
            Op(0, "insert", (5, 50), 0, 1, LOST),
            Op(1, "lookup", (5,), 2, 3, [50]),
            Op(1, "lookup", (5,), 4, 5, []),
        ],
        [], None, [5],
    ),
    "an errored delete's result is not checked": (
        [Op(0, "delete", (5,), 0, 1, LOST)], [(5, 1)], [(5, 1)], [],
    ),
    "a pending insert lands late": (
        [
            Op(0, "insert", (5, 50), 0, None),
            Op(1, "lookup", (5,), 10, 11, []),
            Op(1, "lookup", (5,), 12, 13, [50]),
        ],
        [], None, [],
    ),
    "a pending insert seen, then gone": (
        [
            Op(0, "insert", (5, 50), 0, None),
            Op(1, "lookup", (5,), 10, 11, [50]),
            Op(1, "lookup", (5,), 12, 13, []),
        ],
        [], None, [5],
    ),
    "overlapping scans no one snapshot explains": (
        [
            Op(0, "update", (1, 11), 0, 10, True),
            Op(1, "update", (2, 21), 0, 10, True),
            Op(2, "range_scan", (0, 5), 1, 9, [(1, 11), (2, 20)]),
            Op(3, "range_scan", (0, 5), 1, 9, [(1, 10), (2, 21)]),
        ],
        [(1, 10), (2, 20)], [(1, 11), (2, 21)], [],
    ),
    "a scan that skips a key": (
        [Op(0, "range_scan", (0, 5), 0, 1, [(1, 10)])], [(1, 10), (2, 20)], None, [2],
    ),
    "a scan that strays past its range": (
        [Op(0, "range_scan", (0, 2), 0, 1, [(1, 10), (2, 20)])],
        [(1, 10), (2, 20)], None, [2],
    ),
    "duplicates in any order": (
        [
            Op(0, "insert", (7, 2), 0, 1),
            Op(0, "insert", (7, 1), 2, 3),
            Op(1, "lookup", (7,), 4, 5, [2, 1, 1]),
        ],
        [(7, 1)], [(7, 2), (7, 1), (7, 1)], [],
    ),
    "a duplicate lost": (
        [Op(0, "insert", (7, 1), 0, 1), Op(1, "lookup", (7,), 4, 5, [1])],
        [(7, 1)], None, [7],
    ),
    "update and delete take the first live entry": (
        [
            Op(0, "insert", (3, 31), 0, 1),
            Op(0, "update", (3, 32), 2, 3, True),
            Op(0, "delete", (3,), 4, 5, True),
            Op(0, "lookup", (3,), 6, 7, [31]),
        ],
        [(3, 30)], [(3, 31)], [],
    ),
    "a delete of an absent key that says it found one": (
        [Op(0, "delete", (3,), 0, 1, True), Op(0, "delete", (3,), 2, 3, True)],
        [(3, 30)], None, [3],
    ),
    "an update of an absent key that says it found one": (
        [Op(0, "update", (4, 40), 0, 1, True)], [(3, 30)], None, [4],
    ),
    "a final scan that lost a write": (
        [Op(0, "insert", (5, 50), 0, 1)], [(3, 30)], [(3, 30)], [5],
    ),
    "a final scan with a key nobody wrote": (
        [], [(3, 30)], [(3, 30), (4, 40)], [4],
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_the_checker_names_the_keys_that_cannot_be_linearized(case):
    ops, initial, final, keys = CASES[case]
    assert [key for key, _ in check_history(ops, initial, final)] == keys


def test_a_failure_gives_the_key_and_its_ops_in_invoke_order():
    insert = Op(0, "insert", (5, 50), 0, 1)
    scan = Op(1, "range_scan", (0, 9), 2, 3, [(3, 30)])
    lookup = Op(2, "lookup", (3,), 0, 5, [30])
    assert check_history([scan, lookup, insert], [(3, 30)]) == [
        (5, [insert, Op(1, "range_scan", (0, 9), 2, 3, [])]),
    ]
    final = [(5, 50), (5, 51)]
    everything = (-math.inf, math.inf)
    assert check_history([insert], [], final) == [
        (5, [insert, Op(-1, "range_scan", everything, math.inf, math.inf, final)]),
    ]


def test_an_operation_without_a_model_is_refused():
    with pytest.raises(ValueError):
        check_history([Op(0, "upsert", (1, 1), 0, 1)], [])
