"""Per-operation event logs, and the span trees rendered from them.

While an operation runs, the hub keeps one flat list for it — the
``events`` of the :class:`OpSpan` record :meth:`Observability.begin_op`
hands out — and every layer boundary appends exactly one plain tuple to it:

* ``(VERB, step, verb, server_id, payload_bytes, started_at, finished_at,
  local, batch_id)`` — a verb completed while step *step* was open;
* ``(LEG, leg_start, tx_start, arrival, rx_start, done)`` — one wire leg;
* ``(STAMP, label, started_at, finished_at)`` — an explicit segment;
* ``(ENTER, step, parent_step, kind, name, now)`` / ``(EXIT, step, now)`` —
  a traversal step opened under *parent_step* (0 = the operation) / closed.

Nothing else is built on the hot path, and there is no tree object: the
record is the operation. Its span tree — the operation as root,
traversal steps as children, verbs on the step that was open,
critical-path ``segments`` on the root — exists only as the JSON dict
:meth:`OpSpan.as_dict` replays from the log when somebody looks
(snapshot, flight dump, a test). Every
node of it carries the operation's ``op_id`` — the id a
:class:`~repro.rdma.tracing.TraceRecord`, a view of the same VERB tuple,
names. Retention (sampling, slow ops, rings) is the hub's business.
Timestamps are simulated seconds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.attribution import leg_segments

__all__ = ["OpSpan", "VERB", "LEG", "STAMP", "ENTER", "EXIT"]

#: Event kinds: the first element of every log tuple.
VERB, LEG, STAMP, ENTER, EXIT = range(5)

#: Keys of a rendered verb: the VERB tuple from its third element on.
VERB_FIELDS = (
    "verb", "server_id", "payload_bytes", "started_at", "finished_at",
    "local", "batch_id",
)


class OpSpan:
    """One operation's record: who ran it, when, and its event log."""

    __slots__ = ("op_id", "name", "client_id", "started_at", "finished_at", "events")

    def __init__(
        self, op_id: int, name: str, started_at: float, client_id: Optional[int] = None
    ) -> None:
        self.op_id = op_id
        self.name = name
        self.client_id = client_id
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.events: List[tuple] = []

    def _node(self, kind: str, name: str, started_at: float) -> Dict[str, Any]:
        return {
            "op_id": self.op_id,
            "kind": kind,
            "name": name,
            "client_id": self.client_id,
            "started_at": started_at,
            "finished_at": None,
            "verbs": [],
            "segments": [],
            "children": [],
        }

    def as_dict(self) -> Dict[str, Any]:
        """The operation's span tree, JSON-ready, replayed from its log.

        A step becomes a child node under the step it was opened in (so
        sub-processes of one operation, each with its own open step, nest
        correctly), a verb lands on the step that was open, a leg becomes
        its ``nic_queue`` / ``network_flight`` cuts on the root and a stamp
        one root segment. An ``EXIT`` closes its step and everything under
        it still open; a finished root closes whatever its operation left
        open (a crash or an error never reaches its exits) at its own
        finish time. A pure function of the record: a tuple appended after
        ``end_op`` shows in the next rendering.
        """
        root = self._node("op", self.name, self.started_at)
        root["finished_at"] = self.finished_at
        segments = root["segments"]
        nodes = {0: root}
        for event in self.events:
            kind = event[0]
            if kind == LEG:
                segments.extend([list(cut) for cut in leg_segments(*event[1:])])
            elif kind == VERB:
                nodes[event[1]]["verbs"].append(dict(zip(VERB_FIELDS, event[2:])))
            elif kind == ENTER:
                node = nodes[event[1]] = self._node(*event[3:])
                nodes[event[2]]["children"].append(node)
            elif kind == EXIT:
                _close(nodes[event[1]], event[2])
            else:
                segments.append(list(event[1:]))
        if self.finished_at is not None:
            _close(root, self.finished_at)
        return root


def _close(node: Dict[str, Any], now: float) -> None:
    """Close *node* and its open descendants at *now*; a node already
    closed keeps its time."""
    for child in node["children"]:
        if child["finished_at"] is None:
            _close(child, now)
    if node["finished_at"] is None:
        node["finished_at"] = now
