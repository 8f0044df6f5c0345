"""Tests for the discrete-event kernel."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Process, Simulator


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


def test_succeed_with_a_delay_is_triggered_at_once_and_fires_later():
    # The primitive an RPC reply uses: the value is settled when the SEND is
    # posted, the waiters are resumed when the response leg ends.
    sim = Simulator()
    got = []

    def waiter(tag, seconds):
        yield seconds
        value = yield reply
        got.append((tag, value, sim.now))

    def poster():
        yield 1.0
        reply.succeed("pong", 2.0)
        assert reply.triggered and reply.ok and reply.value == "pong"
        assert reply.callbacks is not None  # not fired yet

    reply = sim.event()
    sim.process(poster())
    sim.process(waiter("before", 0.5))  # waits from before the post
    sim.process(waiter("at", 3.0))  # reaches its yield at the fire instant
    sim.process(waiter("after", 4.0))  # the event fired long ago
    sim.run()
    assert got == [("before", "pong", 3.0), ("at", "pong", 3.0), ("after", "pong", 4.0)]


def test_negative_delay_rejected_by_succeed_and_still_by_timeout():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError, match="negative delay"):
        event.succeed("never", -1e-9)
    assert not event.triggered  # a refused trigger leaves the event pending
    with pytest.raises(SimulationError, match="negative delay"):
        sim.timeout(-1e-9)
    assert sim.events_scheduled == 0
    event.succeed("once", 1.0)
    with pytest.raises(SimulationError, match="already been triggered"):
        event.succeed("twice", 2.0)
    with pytest.raises(SimulationError, match="already been triggered"):
        event.succeed("twice")


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



# -- sleeping: a process yields plain seconds ----------------------------------


def mixed_instant(sim, order):
    """Sleeps, a composable timeout, a ``succeed`` and zero-second naps that
    all land on t = 1.0; the comments give each entry's place in the queue."""
    mailbox = sim.event()
    mailbox.add_callback(lambda _event: order.append("succeed"))

    def sleeper(tag, seconds):
        yield seconds
        order.append(tag)

    def timer():
        yield sim.timeout(1.0)
        order.append("timeout")

    def first():
        yield 1.0
        order.append("first")
        mailbox.succeed()  # queued at 1.0 behind all that is already there
        yield 0
        order.append("zero")

    def late():
        yield 0.5
        yield 0.5  # scheduled at 0.5, lands on 1.0 behind the four above
        order.append("late")

    sim.process(sleeper("sleep", 1.0))
    sim.process(timer())
    sim.process(first())
    sim.process(late())
    sim.process(sleeper("int", 1))


def test_sleeps_timeouts_and_succeeds_at_one_instant_fire_by_sequence():
    # A sleep draws its sequence number at the yield, where the
    # ``sim.timeout`` it replaces drew it.
    sim = Simulator()
    order = []
    mixed_instant(sim, order)
    sim.run()
    assert order == ["sleep", "timeout", "first", "int", "late", "succeed", "zero"]
    assert sim.now == 1.0
    # 5 bootstraps + 6 sleeps + 1 timeout + 1 succeed + 5 completions.
    assert sim.events_scheduled == 18


def test_a_delayed_succeed_fires_by_the_sequence_it_drew_when_posted():
    # ``succeed(value, delay)`` draws its sequence number at the call, like a
    # sleep at its yield: at the instant it lands on, it fires behind a sleep
    # queued earlier and ahead of one queued later.
    sim = Simulator()
    order = []
    reply = sim.event()
    reply.add_callback(lambda _event: order.append("reply"))

    def sleeper(tag, seconds):
        yield seconds
        order.append(tag)

    def poster():
        yield 0.25
        reply.succeed(None, 0.75)

    def late():
        yield 0.5
        yield 0.5
        order.append("later sleep")

    sim.process(sleeper("earlier sleep", 1.0))
    sim.process(poster())
    sim.process(late())
    sim.run()
    assert order == ["earlier sleep", "reply", "later sleep"]
    assert sim.now == 1.0
    # 3 bootstraps + 4 sleeps + 1 delayed succeed + 3 completions.
    assert sim.events_scheduled == 11


def test_zero_second_sleeps_queue_behind_what_the_instant_already_holds():
    sim = Simulator()
    order = []

    def napper(tag, zero):
        order.append(f"{tag} runs")
        yield zero
        order.append(f"{tag} wakes")

    sim.process(napper("int", 0))
    sim.process(napper("float", 0.0))
    sim.timeout(0.0).add_callback(lambda _event: order.append("timeout"))
    sim.run()
    assert order == ["int runs", "float runs", "timeout", "int wakes", "float wakes"]
    assert sim.now == 0.0


def test_killing_a_sleeper_fires_joins_now_and_swallows_the_late_wakeup():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield 5.0
            log.append("victim resumed")
        finally:
            log.append(("cleanup", sim.now))

    def joiner():
        yield sim.all_of([proc])
        log.append(("joined", sim.now))

    def killer():
        yield 2.0
        proc.kill()
        proc.kill()  # a no-op

    proc = sim.process(victim())
    sim.process(joiner())
    sim.process(killer())
    sim.run()
    assert log == [("cleanup", 2.0), ("joined", 2.0)]
    assert proc.value is None
    assert sim.now == 5.0  # the wake-up stayed queued and woke nobody


@pytest.mark.parametrize(
    "killer_first, expected, drained_at",
    [
        # The kill runs first: the victim's wake-up, next in the queue, is
        # swallowed; joins fire where the kill queued them, behind the
        # bystander that was already waiting for this instant.
        (True, ["kill", "cleanup", "bystander", "joined", "killer goes on"], 1.0),
        # The wake-up runs first: the victim sleeps again and dies there.
        (False, ["victim woke", "kill", "cleanup", "bystander", "joined",
                 "killer goes on"], 2.0),
    ],
)
def test_kill_at_the_instant_the_sleep_ends_goes_by_sequence(
    killer_first, expected, drained_at
):
    sim = Simulator()
    log = []

    def victim():
        try:
            yield 1.0
            log.append("victim woke")
            yield 1.0
            log.append("victim woke twice")
        finally:
            log.append("cleanup")

    def killer():
        yield 1.0
        log.append("kill")
        proc.kill()
        yield 0
        log.append("killer goes on")

    def bystander():
        yield 1.0
        log.append("bystander")

    if killer_first:
        sim.process(killer())
        proc = sim.process(victim())
    else:
        proc = sim.process(victim())
        sim.process(killer())
    proc.add_callback(lambda _event: log.append("joined"))
    sim.process(bystander())
    sim.run()
    assert log == expected
    assert sim.now == drained_at


def test_a_failing_event_reaches_a_process_that_has_slept_before():
    sim = Simulator()
    doomed = sim.event()

    def proc():
        yield 1.0
        try:
            yield doomed
        except ValueError as exc:
            woken_with = yield 1.0  # and a sleep after a failure is a sleep
            return f"caught {exc}, then {woken_with}"

    def failer():
        yield 2.0
        doomed.fail(ValueError("boom"))

    p = sim.process(proc())
    sim.process(failer())
    sim.run()
    assert p.value == "caught boom, then None"
    assert sim.now == 3.0


def test_a_first_choice_scheduler_reproduces_heap_order_with_sleepers_ready():
    class First:
        window = 0.0

        def __init__(self):
            self.sleepers_offered = 0

        def choose(self, at, ready):
            assert [entry[:2] for entry in ready] == sorted(entry[:2] for entry in ready)
            self.sleepers_offered += sum(
                isinstance(entry[2], Process) and not entry[2].triggered
                for entry in ready
            )
            return 0

    def trace(scheduler):
        sim = Simulator(scheduler)
        order = []
        mixed_instant(sim, order)
        sim.run()
        return order, sim.events_scheduled, sim.now

    first = First()
    assert trace(first) == trace(None)
    assert first.sleepers_offered > 0


GARBAGE = {
    "negative float": -1.0,
    "negative int": -1,
    "bool": True,
    "None": None,
    "numpy scalar": np.float64(1.0),
    "string": "not an event",
    "bare generator": (never for never in ()),
    "(event, -1)": (Simulator().event(), -1),
    "(event, True)": (Simulator().event(), True),
    "(1.0, 1.0)": (1.0, 1.0),
    "3-tuple": (Simulator().event(), 1.0, 2.0),
}


@pytest.mark.parametrize("garbage", GARBAGE.values(), ids=GARBAGE.keys())
def test_a_bad_yield_is_thrown_back_at_the_yield_that_made_it(garbage):
    sim = Simulator()
    log = []

    def proc():
        try:
            yield garbage
        finally:
            log.append("finally")

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="not an Event or a non-negative") as info:
        sim.run_until_complete(p)
    # Unwound by the throw — not whenever the suspended generator is collected.
    assert log == ["finally"]
    assert "proc" in [entry.name for entry in info.traceback]


def test_a_process_may_catch_the_rejection_and_carry_on():
    sim = Simulator()

    def proc():
        try:
            yield None
        except SimulationError:
            pass
        yield 1.0
        return "recovered"

    assert sim.run_until_complete(sim.process(proc())) == "recovered"
    assert sim.now == 1.0


# -- the bounded wait: a process yields (event, seconds) -----------------------


def bounded_waiter(sim, log, event, seconds):
    """A process that makes one bounded wait and logs how it came back."""

    def proc():
        try:
            value = yield event, seconds
        except KeyError as exc:
            value = exc
        log.append((sim.now, value, event.triggered))
        return value

    return sim.process(proc())


def test_bounded_wait_event_first_gets_its_value_and_the_deadline_wakes_nobody():
    sim = Simulator()
    log = []
    mailbox = sim.event()
    sim.timeout(1.0).add_callback(lambda _event: mailbox.succeed("mail"))

    def proc():
        value = yield mailbox, 5.0
        log.append((sim.now, value))
        yield 10.0  # asleep, as a plain sleeper, when the deadline entry pops
        log.append((sim.now, "slept"))

    before = sim.events_scheduled
    sim.process(proc())
    sim.run()
    assert log == [(1.0, "mail"), (11.0, "slept")]
    # start hop, timeout, succeed, deadline, sleep: the wait itself is one entry.
    assert sim.events_scheduled - before == 5


def test_bounded_wait_deadline_first_gets_none_and_the_event_resumes_nobody():
    sim = Simulator()
    log = []
    mailbox = sim.event()
    sim.timeout(3.0).add_callback(lambda _event: mailbox.succeed("late mail"))

    def proc():
        value = yield mailbox, 0.25
        log.append((sim.now, value, mailbox.triggered))
        yield 10.0  # the event fires during this sleep and must not cut it short
        log.append((sim.now, mailbox.value))

    sim.process(proc())
    sim.run()
    assert log == [(0.25, None, False), (10.25, "late mail")]


def test_bounded_wait_defuses_a_failure_that_arrives_after_the_deadline():
    sim = Simulator()
    log = []
    doomed = sim.event()
    sim.timeout(2.0).add_callback(lambda _event: doomed.fail(KeyError("late")))
    waiter = bounded_waiter(sim, log, doomed, 1.0)
    sim.run()  # does not raise: the failure was this waiter's to ignore
    assert log == [(1.0, None, False)] and waiter.value is None


def test_bounded_wait_on_a_fired_event_resumes_at_once_and_queues_nothing():
    sim = Simulator()
    done = sim.timeout(0.0, "early")
    sim.run()
    log = []
    waiter = bounded_waiter(sim, log, done, 5.0)
    before = sim.events_scheduled
    sim.run()
    assert log == [(0.0, "early", True)]
    assert sim.events_scheduled - before == 1  # the waiter's completion
    assert sim.now == 0.0  # no deadline entry was left to drain


def test_bounded_wait_on_a_triggered_unfired_event_waits_for_the_firing():
    sim = Simulator()
    log = []
    posted = sim.event().succeed("posted", 1.0)
    bounded_waiter(sim, log, posted, 5.0)
    sim.run()
    assert log == [(1.0, "posted", True)]


def test_bounded_wait_has_a_failing_event_thrown_in():
    sim = Simulator()
    log = []
    doomed = sim.event()
    sim.timeout(1.0).add_callback(lambda _event: doomed.fail(KeyError("boom")))
    bounded_waiter(sim, log, doomed, 5.0)
    sim.run()
    [(at, caught, triggered)] = log
    assert at == 1.0 and isinstance(caught, KeyError) and triggered


@pytest.mark.parametrize("event_first", [True, False], ids=["event", "deadline"])
def test_bounded_wait_event_and_deadline_at_one_instant_go_by_sequence(event_first):
    sim = Simulator()
    log = []
    mailbox = sim.event()
    if event_first:
        # Queued before the waiter starts: fires ahead of its deadline entry.
        mailbox.succeed("mail", 1.0)
        bounded_waiter(sim, log, mailbox, 1.0)
    else:
        bounded_waiter(sim, log, mailbox, 1.0)
        sim.run(until=0.5)
        mailbox.succeed("mail", 0.5)
    sim.run()
    # Deadline first: the value is already there to read, but was not handed over.
    assert log == [(1.0, "mail" if event_first else None, True)]


def test_a_process_killed_in_a_bounded_wait_swallows_both_ends():
    sim = Simulator()
    log = []
    mailbox = sim.event()

    def victim():
        try:
            yield mailbox, 5.0
            log.append("victim resumed")
        finally:
            log.append(("cleanup", sim.now))

    proc = sim.process(victim())
    sim.run(until=1.0)
    proc.kill()
    mailbox.fail(KeyError("aimed at a corpse"))
    sim.run()
    assert log == [("cleanup", 1.0)] and proc.value is None
    assert sim.now == 5.0  # the deadline entry stayed queued and woke nobody


def test_successive_bounded_waits_on_one_event_leave_no_stale_wakeup():
    # The RPC attempt loop's shape: the same reply, a fresh deadline per
    # attempt. The first wait's callback is still on the event when it fires.
    sim = Simulator()
    log = []
    reply = sim.event()
    sim.timeout(2.5).add_callback(lambda _event: reply.succeed("pong"))

    def caller():
        for attempt in range(5):
            value = yield reply, 1.0
            log.append((attempt, sim.now, value))
            if reply.triggered:
                break
        other = sim.event()
        log.append((yield other, 4.0))  # no stale end of the waits above wakes this
        log.append(sim.now)

    sim.process(caller())
    sim.run()
    assert log == [(0, 1.0, None), (1, 2.0, None), (2, 2.5, "pong"), None, 6.5]


def test_a_returning_process_fires_behind_what_its_instant_already_holds():
    # A process pushes its own completion when its generator returns: the
    # sequence number it draws then orders its joins behind every entry
    # already queued for that instant, and ahead of those queued later.
    sim = Simulator()
    order = []

    def note(tag):
        return lambda _event: order.append(tag)

    def child():
        yield 1.0
        order.append("returned")
        return "value"

    def waiter():
        value = yield proc
        order.append(("waiter", value))

    proc = sim.process(child())
    proc.add_callback(note("joined"))
    sim.timeout(1.0).add_callback(note("early"))

    def late(_event):
        order.append("late")
        # Queued at 1.0 after the child returned, so behind its firing.
        sim.timeout(0.0).add_callback(note("after"))

    # Queued at 0.5 for 1.0: before the child returns, so ahead of it.
    sim.timeout(0.5).add_callback(lambda _event: sim.timeout(0.5).add_callback(late))
    sim.process(waiter())
    sim.run()
    assert order == ["early", "returned", "late", "joined", ("waiter", "value"), "after"]
    assert proc.value == "value" and sim.now == 1.0


def test_all_of_over_fired_triggered_and_pending_children_fires_once_in_order():
    sim = Simulator()
    fired = sim.event()
    fired.succeed("fired")
    sim.run()
    assert fired.callbacks is None  # fired, not only triggered
    triggered = sim.event()
    triggered.succeed("triggered", 1.0)
    pending = sim.event()
    sim.timeout(2.0).add_callback(lambda _event: pending.succeed("pending"))
    join = sim.all_of([triggered, fired, pending, fired])
    only_fired = sim.all_of([fired])
    hits = []
    join.add_callback(lambda event: hits.append(("join", sim.now, event.value)))
    only_fired.add_callback(lambda event: hits.append(("only", sim.now, event.value)))
    sim.run()
    assert hits == [
        ("only", 0.0, ["fired"]),
        ("join", 2.0, ["triggered", "fired", "pending", "fired"]),
    ]


def test_a_child_failing_after_a_sibling_completed_fails_the_join_once():
    sim = Simulator()

    def ok():
        yield 1.0
        return "ok"

    def bad(delay, tag):
        yield delay
        raise KeyError(tag)

    join = sim.all_of(
        [sim.process(ok()), sim.process(bad(2.0, "first")), sim.process(bad(3.0, "second"))]
    )
    fired = []
    join.add_callback(lambda event: fired.append((sim.now, event.value)))
    caught = []

    def waiter():
        try:
            yield join
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.process(waiter())
    sim.run()  # the second failure is the join's to swallow: nothing raises
    assert caught == [(2.0, "first")]
    assert len(fired) == 1 and fired[0][0] == 2.0
    assert isinstance(fired[0][1], KeyError) and sim.now == 3.0
