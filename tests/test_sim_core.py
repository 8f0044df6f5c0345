"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert sim.now == 1.5
    assert p.value == "done"


def test_zero_delay_timeout_fires_at_current_time():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value_propagates_through_yield():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    p = sim.process(parent())
    sim.run()
    assert p.value == 43


def test_yield_from_subgenerator_composes():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return "inner"

    def outer():
        value = yield from inner()
        yield sim.timeout(1.0)
        return value + "+outer"

    p = sim.process(outer())
    sim.run()
    assert p.value == "inner+outer"
    assert sim.now == 2.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_same_instant_merges_succeed_zero_and_positive_timeouts_by_sequence():
    # One heap ordered by (time, sequence): events triggered *at* an instant
    # (succeed, timeout(0)) queue behind everything already scheduled *for*
    # it, whenever that was scheduled.
    sim = Simulator()
    order = []

    def note(tag):
        return lambda _event: order.append(tag)

    mailbox = sim.event()
    mailbox.add_callback(note("succeed"))

    def first(_event):
        order.append("first")
        mailbox.succeed()
        sim.timeout(0.0).add_callback(note("zero"))

    sim.timeout(1.0).add_callback(first)
    sim.timeout(1.0).add_callback(note("second"))
    # Scheduled at 0.5, lands on 1.0 too: after "second", before the
    # events "first" triggers once it fires.
    sim.timeout(0.5).add_callback(
        lambda _event: sim.timeout(0.5).add_callback(note("late"))
    )
    sim.run()
    assert order == ["first", "second", "late", "succeed", "zero"]
    assert sim.now == 1.0


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        procs = [sim.process(child(3 - i, i)) for i in range(3)]
        values = yield sim.all_of(procs)
        return values

    p = sim.process(parent())
    sim.run()
    assert p.value == [0, 1, 2]  # original order, not completion order
    assert sim.now == 3.0


def test_any_of_returns_first_completion():
    sim = Simulator()

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        value = yield sim.any_of([sim.process(child(5, "slow")),
                                  sim.process(child(1, "fast"))])
        return value

    p = sim.process(parent())
    sim.run()
    assert p.value == "fast"


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        values = yield sim.all_of([])
        return values

    p = sim.process(parent())
    sim.run()
    assert p.value == []


def test_exception_in_child_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(parent())
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_child_exception_fails_waiting_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        yield sim.process(child())

    sim.process(parent())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_manual_event_mailbox():
    sim = Simulator()
    mailbox = sim.event()
    got = []

    def waiter():
        value = yield mailbox
        got.append(value)

    def sender():
        yield sim.timeout(2.0)
        mailbox.succeed("hello")

    sim.process(waiter())
    sim.process(sender())
    sim.run()
    assert got == ["hello"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 7

    assert sim.run_until_complete(sim.process(proc())) == 7


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    never = sim.event()

    def proc():
        yield never

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(sim.process(proc()))


def test_run_until_stops_clock_at_bound():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()  # finish the rest
    assert sim.now == 10.0


def test_run_until_a_passed_instant_leaves_the_clock_alone():
    sim = Simulator()
    fired = []
    sim.timeout(3.0)
    sim.run()
    assert sim.now == 3.0
    sim.run(until=1.0)  # empty queue
    assert sim.now == 3.0
    sim.timeout(0.0).add_callback(fired.append)
    sim.timeout(2.0).add_callback(fired.append)
    sim.run(until=1.0)  # queued events, at the current instant and later
    assert sim.now == 3.0 and not fired
    sim.run()
    assert sim.now == 5.0 and len(fired) == 2


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def proc():
        yield "not an event"

    with pytest.raises(SimulationError, match="not an Event"):
        sim.run_until_complete(sim.process(proc()))


def test_determinism_across_runs():
    def trace():
        sim = Simulator()
        log = []

        def proc(tag, delay):
            for i in range(3):
                yield sim.timeout(delay)
                log.append((tag, sim.now))

        for tag in range(4):
            sim.process(proc(tag, 1.0 + tag * 0.1))
        sim.run()
        return log

    assert trace() == trace()
