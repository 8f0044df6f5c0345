"""Verb-level tracing.

Attach a :class:`VerbTracer` to a cluster's fabric and every RDMA verb a
queue pair executes is recorded with its timing — the exact wire anatomy
of an index operation. This is how you *see* the paper's design space:
a coarse-grained lookup is one SEND/response pair; a fine-grained lookup
is a chain of page READs; an insert adds CAS/WRITE/FAA lock traffic.

Usage::

    from repro.rdma.tracing import VerbTracer

    with VerbTracer(cluster) as tracer:
        cluster.execute(session.lookup(42))
    print(tracer.format())

The tracer has no hook of its own: a completed verb is reported once, to
the observability hub (``fabric.obs``), and the tracer reads the hub's verb
tuples (``Observability.verb_readers``). On a cluster without a hub it
installs a private one on ``fabric.obs`` for its own lifetime and puts back
what was there on exit, so with nothing attached the verb hot paths pay one
attribute-is-None test per post. The hub never schedules events: a traced
run's simulated outcome equals an untraced one's.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional

from repro.obs.hub import Observability
from repro.obs.spans import OpSpan
from repro.rdma.verbs import Verb

__all__ = ["TraceRecord", "VerbTracer"]


class TraceRecord(NamedTuple):
    """One verb on the wire: the hub's verb tuple, named."""

    verb: Verb
    server_id: int
    payload_bytes: int
    started_at: float
    finished_at: float
    #: True when the verb took the co-located local-memory fast path.
    local: bool = False
    #: Doorbell batch this verb was posted in (None = posted alone).
    #: Verbs sharing a ``batch_id`` traveled in one request message and
    #: were acknowledged by one selectively-signaled completion.
    batch_id: Optional[int] = None
    #: ``op_id`` of the :class:`~repro.obs.spans.OpSpan` tree of the tracked
    #: operation the verb ran inside; None outside one (no cluster hub).
    op_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class VerbTracer:
    """Collects :class:`TraceRecord` objects from a cluster's queue pairs.

    Works as a context manager, and nests; while attached, every verb of
    every session on the cluster is recorded (tracing is for understanding
    and debugging single operations, not for measurement runs).
    """

    def __init__(self, cluster: Any) -> None:
        self._cluster = cluster
        self._displaced: Optional[Observability] = None
        self.records: List[TraceRecord] = []

    # -- attachment ----------------------------------------------------------

    def __enter__(self) -> "VerbTracer":
        fabric = self._cluster.fabric
        self._displaced = fabric.obs
        if fabric.obs is None:
            fabric.obs = Observability(self._cluster.sim)
        fabric.obs.verb_readers.append(self._read)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        fabric = self._cluster.fabric
        fabric.obs.verb_readers.remove(self._read)
        fabric.obs = self._displaced

    def _read(self, event: tuple, root: Optional[OpSpan]) -> None:
        # event: (VERB, step, verb name, server_id, payload_bytes,
        # started_at, finished_at, local, batch_id) — see repro.obs.spans.
        op_id = root.op_id if root is not None else None
        self.records.append(TraceRecord._make((Verb(event[2]), *event[3:], op_id)))

    # -- reporting ---------------------------------------------------------------

    def clear(self) -> None:
        self.records.clear()

    @property
    def round_trips(self) -> int:
        """Verbs that crossed the network (local fast-path ones excluded)."""
        return sum(1 for record in self.records if not record.local)

    @property
    def total_payload_bytes(self) -> int:
        return sum(record.payload_bytes for record in self.records)

    @property
    def doorbells(self) -> int:
        """Doorbell rings behind the non-local records: each batch counts
        once, every unbatched verb counts for itself."""
        batches = {r.batch_id for r in self.records
                   if not r.local and r.batch_id is not None}
        singles = sum(1 for r in self.records
                      if not r.local and r.batch_id is None)
        return len(batches) + singles

    def batch_sizes(self) -> List[int]:
        """Verb counts of the recorded doorbell batches (order of first
        appearance)."""
        sizes: dict = {}
        for record in self.records:
            if record.batch_id is not None:
                sizes[record.batch_id] = sizes.get(record.batch_id, 0) + 1
        return list(sizes.values())

    def count(self, verb: Verb) -> int:
        return sum(1 for record in self.records if record.verb == verb)

    def format(self, relative_to: Optional[float] = None) -> str:
        """A human-readable wire anatomy table."""
        if not self.records:
            return "(no verbs recorded)"
        t0 = relative_to if relative_to is not None else self.records[0].started_at
        lines = [
            f"{'t (us)':>8s} {'verb':<10s} {'server':>6s} {'bytes':>7s} "
            f"{'dur (us)':>9s}"
        ]
        for record in self.records:
            label = record.verb.value + (" *local" if record.local else "")
            if record.batch_id is not None:
                label += f" b{record.batch_id}"
            lines.append(
                f"{(record.started_at - t0) * 1e6:>8.2f} {label:<10s} "
                f"{record.server_id:>6d} {record.payload_bytes:>7d} "
                f"{record.duration * 1e6:>9.2f}"
            )
        lines.append(
            f"total: {len(self.records)} verbs, "
            f"{self.total_payload_bytes} payload bytes"
        )
        return "\n".join(lines)
