"""A small discrete-event simulation kernel.

The kernel follows the well-known *process interaction* style (as popularized
by SimPy): model code is written as Python generators; the simulator advances
virtual time, fires events, and resumes the waiting generators. The kernel is
deliberately minimal — just what the RDMA fabric and NAM cluster models need:

* :class:`Event` — a one-shot occurrence carrying a value or an exception.
* :class:`Timeout` — a delay *as an event*, to hang a callback on (the carrier
  of a reply that may be lost): an event born ``succeed(value, delay)``-ed.
* :class:`Process` — wraps a generator; itself an event that fires when the
  generator returns (its value is the generator's return value).
* :class:`Condition` — ``all_of`` composition, used e.g. for the unbatched
  head-node prefetch, where several RDMA READs are issued in parallel.
* :class:`Simulator` — the event loop and virtual clock.

Process protocol: a generator yields an :class:`Event` and is resumed with
its value (or has its exception thrown in) once it fires, or yields a plain
``float``/``int`` of seconds and *sleeps*: the process itself is queued at
``now + seconds`` under the next sequence number and resumed with ``None``
— no event object, no callback. Or both, the *bounded wait* ``yield event,
seconds``: the process registers on the event and queues one deadline entry;
whichever comes first resumes it (the event's value, or ``None`` at ``now +
seconds`` — ask ``event.triggered``) and the other end finds nothing to do.
Anything else (a negative number, ``bool``, ``None``, a numpy scalar, a bare
generator, any other tuple) is thrown back at the offending ``yield`` as a
:class:`SimulationError`, so ``finally`` blocks run there.

Determinism: events scheduled for the same instant fire in scheduling order
(a monotonically increasing sequence number breaks ties), so a seeded run is
fully reproducible.

Engine speed (docs/performance.md "What a sleep costs", "What an RPC
costs", "What a possible fault costs", "What a scan costs per leaf"): the
queue is one binary heap of ``(time, sequence, event, wakes)`` entries; a
zero-delay trigger (``succeed`` chain, SRQ hand-off) is pushed at ``now``,
a process starts as a sleep of zero and, returning, pushes its own firing.
A sleep — every verb leg, CPU charge and think time — is four function
calls (``heappush``, ``heappop``, ``_resume``, ``send``); an RPC reply is
one entry, ``reply.succeed(response, delay)``, not a process; a wait with a
deadline is one entry, not a ``Timeout`` and a composite; ``all_of`` hangs
on its children with no call per child. Nothing is pooled.

Schedule control: a :class:`Simulator` optionally carries a *scheduler* —
any object with a ``choose(at, ready)`` method and an optional ``window``
attribute (virtual seconds, default 0; sampled when the scheduler is
attached). Whenever two or more events are ready within ``window`` of the
earliest queued event, the kernel hands the scheduler the ready list (in
``(time, sequence)`` order) and fires the entry whose index it returns; the
rest stay queued and are offered again. Choosing a later entry *defers* the
earlier ones — they fire after it, at an unchanged virtual timestamp (the
clock never runs backwards; deferred events model scheduling jitter the
fabric is allowed to exhibit). Nothing ever fires early, and an event is
only ever queued once its causes have fired, so causal chains are
preserved. With no scheduler attached (the default) the behavior is
byte-identical to the plain heap order, and a scheduler with ``window == 0``
that returns ``0`` from ``choose`` reproduces it. This is the hook the
namsan schedule explorer (:mod:`repro.analysis.namsan.explore`) uses to
enumerate interleavings of concurrent client processes at synchronization
points.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Union

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Simulator",
]

#: Type alias for model code: a generator that yields events to wait for
#: and plain numbers of seconds to sleep.
ProcessGenerator = Generator[Union["Event", float], Any, Any]

_PENDING = object()


class Event:
    """A one-shot occurrence inside a :class:`Simulator`.

    An event starts *pending*; it is *triggered* by :meth:`succeed` or
    :meth:`fail`, after which the simulator fires its callbacks — at the
    current virtual time, or ``succeed``'s *delay* later. Processes that
    ``yield`` an event not yet fired are suspended until it fires.
    """

    __slots__ = ("sim", "callbacks", "_value", "_is_error", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._is_error = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and not self._is_error

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value accessed before it triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value*: ``triggered`` at
        once, fired — waiters resumed — *delay* virtual seconds from now."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._value = value
        self.sim._queue_fire(self, delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, which will be re-raised in
        every process waiting on it."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._value = exception
        self._is_error = True
        self.sim._queue_fire(self)
        return self

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)
        if self._is_error and not self._defused:
            # An un-waited-for failure must not pass silently.
            raise self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when the event fires (immediately if fired)."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


def _defuse(event: Event) -> None:
    if event._is_error:
        event._defused = True


class Timeout(Event):
    """A delay as an event: fires ``delay`` virtual seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        self.succeed(value, delay)


class Process(Event):
    """A running model process; fires when its generator returns.

    It drives the generator by the module docstring's protocol (a yielded
    event's value is sent back in or its exception thrown; yielded seconds
    are slept). The generator's ``return`` value becomes the process
    event's value, so one process may ``yield`` another for its result.
    """

    __slots__ = ("_generator", "_killed", "span")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator) -> None:
        super().__init__(sim)
        self._generator = generator
        self._killed = False
        #: Observability attribution: the hub's frame ``(operation record,
        #: open step, enclosing frame)`` for the operation this process
        #: works for, or None. Inherited from the spawning process, so
        #: fan-out sub-processes (parallel reads, batch chunks) log into
        #: their operation. The kernel never reads this — it only carries it.
        parent = sim._active
        self.span: Any = parent.span if parent is not None else None
        # Kick the process off at the current instant: a sleep of zero.
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._heap, (sim.now, seq, self, True))

    def kill(self) -> None:
        """Abandon the process at its current suspension point.

        Models a crash: the generator is closed (``GeneratorExit`` is
        raised at its current ``yield``, so ``finally`` blocks still run),
        no further model effects happen, and the process event fires with
        ``None`` so joins (``all_of``) on it do not deadlock. Killing a
        completed or already-killed process is a no-op.
        """
        if self.triggered or self._killed:
            return
        self._killed = True
        self._generator.close()
        self.succeed(None)

    def _resume(self, fired: Event) -> None:
        if self._killed:
            # A crash left this process queued asleep, or this callback on
            # an in-flight event; swallow the wake-up (and defuse failures
            # aimed at a corpse).
            if fired._is_error:
                fired._defused = True
            return
        # While the generator runs, this process is the simulator's active
        # process — the anchor observability uses to attribute events
        # (verbs, span steps) to the operation being executed.
        sim = self.sim
        previous = sim._active
        sim._active = self
        generator = self._generator
        target: Any  # told apart by class identity: no isinstance per sleep
        try:
            while True:
                try:
                    if fired._is_error:
                        fired._defused = True
                        target = generator.throw(fired.value)
                    else:
                        target = generator.send(fired._value)
                except StopIteration as stop:
                    # succeed()'s push, inline: the process fires at now.
                    self._value = stop.value
                    sim._sequence = seq = sim._sequence + 1
                    heappush(sim._heap, (sim.now, seq, self, False))
                    return
                except BaseException as exc:  # model code raised
                    self.fail(exc)
                    return
                cls = target.__class__
                if cls is float or cls is int:
                    if target >= 0:
                        sim._sequence = seq = sim._sequence + 1
                        heappush(sim._heap, (sim.now + target, seq, self, True))
                        return
                elif isinstance(target, Event):
                    if target.callbacks is None:
                        # Already fired: loop and resume immediately without
                        # recursing (keeps deep chains iterative).
                        fired = target
                        continue
                    target.callbacks.append(self._resume)
                    return
                elif cls is tuple and len(target) == 2 and isinstance(target[0], Event):
                    event, seconds = target
                    cls = seconds.__class__
                    if (cls is float or cls is int) and seconds >= 0:
                        if event.callbacks is None:
                            fired = event  # already fired: nothing to bound
                            continue
                        event.callbacks.append(self._resume)
                        sim._sequence = seq = sim._sequence + 1
                        heappush(sim._heap, (sim.now + seconds, seq, self, event))
                        return
                # Thrown at the offending yield, so the generator's
                # ``finally`` blocks run now and the traceback names the line.
                fired = Event(sim)
                fired._is_error = True
                fired._value = SimulationError(
                    f"process yielded {target!r}, which is not an Event or a "
                    "non-negative float/int of seconds to sleep, nor a pair of them"
                )
        finally:
            sim._active = previous


class Condition(Event):
    """Fires once every child event has fired; its value is the list of
    child values, in the original order. A failing child fails it."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = events = list(events)
        self._remaining = len(events)
        if not events:
            self.succeed([])
            return
        on_child = self._on_child
        for event in events:  # add_callback, inline: a fired child counts now
            if event.callbacks is None:
                on_child(event)
            else:
                event.callbacks.append(on_child)

    def _on_child(self, child: Event) -> None:
        if child._is_error:
            child._defused = True
            if self._value is _PENDING:
                self.fail(child._value)
            return
        self._remaining -= 1
        if not self._remaining and self._value is _PENDING:
            self.succeed([event._value for event in self._events])


class Simulator:
    """The event loop and virtual clock.

    Typical use::

        sim = Simulator()

        def model():
            yield 1.0  # sleep one virtual second
            return "done"

        proc = sim.process(model())
        sim.run()
        assert proc.value == "done" and sim.now == 1.0
    """

    def __init__(self, scheduler: Optional[Any] = None) -> None:
        self.now: float = 0.0
        #: ``(time, sequence, event, wakes)`` entries; the sequence number
        #: makes same-instant events fire in scheduling order. *wakes* marks
        #: a sleeping :class:`Process` to resume (True), or is the event a
        #: bounded wait gives up on at this deadline; False: *event* fires.
        self._heap: List[Any] = []
        self._sequence = 0
        #: What a process whose sleep ended is resumed with: ``None``.
        self._slept = Event(self)
        self._slept._value = None
        self._scheduler: Any = None
        self._window = 0.0
        self.scheduler = scheduler
        #: The :class:`Process` currently driving its generator, or None
        #: (between events, or while firing non-process callbacks). Spawned
        #: processes inherit their ``span`` from it; observability reads it
        #: to attribute verbs to operations. Purely passive bookkeeping —
        #: it never influences scheduling.
        self._active: Optional[Process] = None

    # -- event factories ---------------------------------------------------

    @property
    def events_scheduled(self) -> int:
        """Total entries queued so far, events and sleeps — the work counter."""
        return self._sequence

    @property
    def scheduler(self) -> Optional[Any]:
        """The optional tie-breaking policy of the module docstring's
        "Schedule control", ``choose(at, ready) -> int`` over the ready
        ``(at, seq, Event, wakes)`` entries in sequence order. It may be
        attached or detached between events (the explorer does so around a
        scenario's concurrent phase). None = plain deterministic heap order.
        """
        return self._scheduler

    @scheduler.setter
    def scheduler(self, value: Optional[Any]) -> None:
        self._scheduler = value
        self._window = 0.0 if value is None else getattr(value, "window", 0.0)

    def event(self) -> Event:
        """A fresh untriggered event (a mailbox another process can fire)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A delay as an event, to compose or hang a callback on."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start *generator* as a process; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event firing once all *events* fired; value is their value list."""
        return Condition(self, events)

    # -- scheduling & the loop ---------------------------------------------

    def _queue_fire(self, event: Event, delay: float = 0.0) -> None:
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self.now + delay, seq, event, False))

    def _pop_choice(self, at: float, until: Optional[float] = None) -> Any:
        """Pop the next entry to fire, letting the attached scheduler pick
        among all entries ready within its ``window`` of the earliest one
        (never reaching past *until*). The entries not chosen are pushed
        back and offered again at the next step, so one ``choose`` call
        resolves one firing, not the whole group."""
        heap = self._heap
        limit = at + self._window
        if until is not None and limit > until:
            limit = until
        # Fast path: the root's children (the only candidates for the
        # second-earliest entry) are both beyond the window, so exactly
        # one entry is ready — no list, no ``choose`` call.
        size = len(heap)
        if size == 1 or (
            heap[1][0] > limit and (size < 3 or heap[2][0] > limit)
        ):
            return heappop(heap)
        ready = [heappop(heap)]
        while heap and heap[0][0] <= limit:
            ready.append(heappop(heap))
        if len(ready) > 1:
            index = self._scheduler.choose(at, ready)
            if not 0 <= index < len(ready):
                index = 0
        else:
            index = 0
        chosen = ready.pop(index)
        for entry in ready:
            heappush(heap, entry)
        return chosen

    def _fire_queued(self, until: Optional[float], target: Optional[Event]) -> None:
        """The loop: fire entries in ``(time, sequence)`` order until the
        queue drains, the next one lies past *until*, or *target* triggers."""
        heap = self._heap
        slept = self._slept
        while heap and (target is None or target._value is _PENDING):
            at = heap[0][0]
            if until is not None and at > until:
                break
            if self._scheduler is None:
                at, _seq, event, wakes = heappop(heap)
                self.now = at
            else:
                at, _seq, event, wakes = self._pop_choice(at, until)
                # A deferred entry may carry a timestamp the clock already
                # passed; it fires late, the clock never runs backwards.
                if at > self.now:
                    self.now = at
            if wakes is True:
                event._resume(slept)
            elif wakes is False:
                event._fire()
            elif wakes.callbacks is not None:
                # A bounded wait's deadline, ahead of its event: the event
                # forgets the process (a late failure is nobody's to handle).
                waiters = wakes.callbacks
                waiters[waiters.index(event._resume)] = _defuse
                event._resume(slept)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock passes *until*.

        When stopped by *until*, the clock is set exactly to *until* and any
        events scheduled later stay queued (``run`` may be called again).
        An *until* the clock has already passed fires nothing and leaves
        the clock where it is: it never runs backwards.
        """
        self._fire_queued(until, None)
        if until is not None and until > self.now:
            self.now = until

    def run_until_complete(self, target: Event) -> Any:
        """Run until *target* fires and return its value.

        Raises :class:`SimulationError` if the queue drains first (a
        deadlock in model code), or re-raises the event's exception if it
        failed.
        """
        self._fire_queued(None, target)
        if target._value is _PENDING:
            raise SimulationError(
                "event queue drained before the awaited event fired "
                "(model deadlock?)"
            )
        if target._is_error:
            target._defused = True
            raise target.value
        return target.value
