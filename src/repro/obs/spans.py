"""Per-operation event logs, and the span trees built from them.

While an operation runs, the hub keeps one flat list for it — the
``events`` of the root record :meth:`Observability.begin_op` hands out —
and every layer boundary appends exactly one plain tuple to it:

* ``(VERB, step, verb, server_id, payload_bytes, started_at, finished_at,
  local, batch_id)`` — a verb completed while step *step* was open;
* ``(LEG, leg_start, tx_start, arrival, rx_start, done)`` — one wire leg;
* ``(STAMP, label, started_at, finished_at)`` — an explicit segment;
* ``(ENTER, step, parent_step, kind, name, now)`` / ``(EXIT, step, now)`` —
  a traversal step opened under *parent_step* (0 = the operation) / closed.

Nothing else is built on the hot path. The tree — the operation as root
:class:`OpSpan`, traversal steps as child spans, verbs as
:class:`VerbEvent` leaves on the span that was open, critical-path
``segments`` on the root — is what :func:`materialise` derives from the
log, and only when somebody looks: reading ``children`` / ``verbs`` /
``segments`` of a log-backed root (snapshot, flight dump, attribution, a
test) replays the log first. Every span carries its root's ``op_id`` — the
id a :class:`~repro.rdma.tracing.TraceRecord`, a view of the same VERB
tuple, names. Retention (sampling, slow ops, rings) is the hub's business.
Timestamps are simulated seconds.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.obs.attribution import leg_segments

__all__ = ["VerbEvent", "OpSpan", "materialise", "VERB", "LEG", "STAMP", "ENTER", "EXIT"]

#: Event kinds: the first element of every log tuple.
VERB, LEG, STAMP, ENTER, EXIT = range(5)


class VerbEvent(NamedTuple):
    """One completed RDMA verb attributed to a span."""

    verb: str
    server_id: int
    payload_bytes: int
    started_at: float
    finished_at: float
    #: True when the verb took the co-located local-memory fast path.
    local: bool
    #: Doorbell batch the verb traveled in (None = posted alone).
    batch_id: Optional[int]


class OpSpan:
    """One node of an operation's span tree; the root doubles as the
    operation's record and, when the hub made it, owns the event log."""

    __slots__ = (
        "op_id",
        "kind",
        "name",
        "client_id",
        "started_at",
        "finished_at",
        "events",
        "_replayed",
        "_children",
        "_verbs",
        "_segments",
    )

    def __init__(
        self,
        op_id: int,
        kind: str,
        name: str,
        started_at: float,
        client_id: Optional[int] = None,
        events: Optional[list] = None,
    ) -> None:
        self.op_id = op_id
        self.kind = kind
        self.name = name
        self.client_id = client_id
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        #: The operation's event log (hub-made roots only; None on child
        #: spans and on trees built by hand).
        self.events = events
        self._replayed = 0
        self._children: List["OpSpan"] = []
        self._verbs: List[VerbEvent] = []
        self._segments: List[tuple] = []

    def _sync(self) -> None:
        events = self.events
        if events is not None and len(events) != self._replayed:
            materialise(self)

    @property
    def children(self) -> List["OpSpan"]:
        self._sync()
        return self._children

    @property
    def verbs(self) -> List[VerbEvent]:
        self._sync()
        return self._verbs

    @property
    def segments(self) -> List[tuple]:
        """Critical-path stamps ``(label, start, end)``, on the *root* span
        only; consumed by :mod:`repro.obs.attribution`."""
        self._sync()
        return self._segments

    def child(self, kind: str, name: str, started_at: float) -> "OpSpan":
        """Open a child span (inherits op_id and client_id)."""
        span = OpSpan(self.op_id, kind, name, started_at, client_id=self.client_id)
        self.children.append(span)
        return span

    def finish(self, now: float) -> None:
        """Close this span; children left open are closed at the same instant
        (a crashed or error-aborted operation never reaches its exits)."""
        for span in self.children:
            if span.finished_at is None:
                span.finish(now)
        if self.finished_at is None:
            self.finished_at = now

    @property
    def duration(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.started_at
        return end - self.started_at

    # -- aggregation ---------------------------------------------------------

    def iter_spans(self) -> Iterator["OpSpan"]:
        """This span and every descendant, pre-order."""
        yield self
        for span in self.children:
            yield from span.iter_spans()

    def verb_counts(self, remote_only: bool = False) -> Dict[str, int]:
        """``{verb: count}`` over the whole subtree.

        With ``remote_only=True`` co-located local fast-path verbs are
        excluded — those never post a work-queue entry, so the remote-only
        counts are what reconciles against NIC WQE counters.
        """
        counts: Dict[str, int] = {}
        for span in self.iter_spans():
            for event in span.verbs:
                if remote_only and event.local:
                    continue
                counts[event.verb] = counts.get(event.verb, 0) + 1
        return counts

    def total_verbs(self, remote_only: bool = False) -> int:
        return sum(self.verb_counts(remote_only).values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the subtree."""
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "name": self.name,
            "client_id": self.client_id,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "verbs": [event._asdict() for event in self.verbs],
            "segments": [list(segment) for segment in self.segments],
            "children": [span.as_dict() for span in self.children],
        }

    def format(self, indent: int = 0) -> str:
        """Human-readable subtree (one line per span, verbs summarized)."""
        pad = "  " * indent
        parts = [
            f"{pad}{self.kind}:{self.name} "
            f"[{self.duration * 1e6:.2f}us, op={self.op_id}]"
        ]
        for event in self.verbs:
            flag = " local" if event.local else ""
            batch = f" b{event.batch_id}" if event.batch_id is not None else ""
            parts.append(
                f"{pad}  · {event.verb} s{event.server_id} "
                f"{event.payload_bytes}B "
                f"{(event.finished_at - event.started_at) * 1e6:.2f}us"
                f"{flag}{batch}"
            )
        for span in self.children:
            parts.append(span.format(indent + 1))
        return "\n".join(parts)


def materialise(root: OpSpan) -> None:
    """Rebuild *root*'s children, verbs and segments from its event log.

    A pure function of ``(root.events, root.finished_at)``: the log is
    replayed in order, steps become child spans under the step they were
    opened in (so sub-processes of one operation, each with its own open
    step, nest correctly), a leg expands into its ``nic_queue`` /
    ``network_flight`` segments, and a finished root closes whatever its
    operation left open at its own finish time.
    """
    events = root.events
    root._replayed = len(events)
    root._children, root._verbs, root._segments = [], [], []
    segments = root._segments
    spans = {0: root}
    for event in events:
        kind = event[0]
        if kind == LEG:
            segments.extend(leg_segments(*event[1:]))
        elif kind == VERB:
            spans[event[1]].verbs.append(VerbEvent(*event[2:]))
        elif kind == ENTER:
            spans[event[1]] = spans[event[2]].child(*event[3:])
        elif kind == EXIT:
            spans[event[1]].finish(event[2])
        else:
            segments.append(event[1:])
    if root.finished_at is not None:
        root.finish(root.finished_at)
