"""Remote-memory access events and their collector.

Every effect a verb applies to a registered region — one-sided READ /
WRITE / CAS / FETCH_AND_ADD from a queue pair, or a memory-server
worker's local page access — can be recorded as an :class:`AccessEvent`.
The stream is totally ordered by the discrete-event simulator (effects
are instantaneous), which is exactly the property the happens-before
analysis in :mod:`repro.analysis.namsan.sanitizer` needs: it replays the
events in ``seq`` order and asks which pairs were *actually* ordered by
synchronization rather than by scheduling luck.

Attaching a :class:`TraceCollector` to a cluster is pure recording — no
simulation events are created, no timing changes, and with none attached
the emission hooks are a single ``is None`` test. It is a hook of its own
rather than a reader of the observability hub (as
:class:`~repro.rdma.tracing.VerbTracer` is) because its record is a
different fact — the landing instant, byte range and lock epoch of an
*effect*, not a verb's completion (docs/namsan.md).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List

from repro.errors import AnalysisError

__all__ = ["AccessEvent", "TraceCollector", "KIND_READ", "KIND_WRITE", "KIND_ATOMIC"]

#: Plain load of a byte range (optimistic page reads, root refreshes).
KIND_READ = "read"
#: Plain store of a byte range (page installs, unlock page write-backs).
KIND_WRITE = "write"
#: 8-byte atomic RMW (CAS / FETCH_AND_ADD) — a synchronization operation.
KIND_ATOMIC = "atomic"

_KINDS = (KIND_READ, KIND_WRITE, KIND_ATOMIC)


@dataclass(frozen=True)
class AccessEvent:
    """One remote-memory effect, as the sanitizer sees it.

    ``actor`` identifies the thread of execution: ``c<id>`` for a compute
    server's one-sided verbs, ``s<id>`` for a memory server's RPC
    workers. ``server`` is the *logical* memory server owning the bytes
    (stable across failover), so ``(server, offset, length)`` names a
    byte range of authoritative remote memory. ``lock_epoch`` carries the
    pre-operation value of the word for atomics — for lock words this is
    the version/owner-tag state the operation observed, which is what a
    :class:`~repro.analysis.namsan.sanitizer.RaceReport` prints.
    """

    seq: int
    actor: str
    kind: str
    verb: str
    server: int
    offset: int
    length: int
    time: float
    lock_epoch: int = 0
    label: str = ""

    @property
    def end(self) -> int:
        return self.offset + self.length

    def describe(self) -> str:
        where = f"server {self.server} [{self.offset:#x}, {self.end:#x})"
        tail = f" {self.label}" if self.label else ""
        return (
            f"#{self.seq} {self.actor} {self.verb} ({self.kind}) {where} "
            f"at t={self.time * 1e6:.2f}us{tail}"
        )


class TraceCollector:
    """Collects :class:`AccessEvent` objects from a cluster's fabric.

    Use as a context manager around a workload, or attach/detach
    explicitly::

        collector = TraceCollector()
        collector.attach(cluster)
        ...run workload...
        collector.detach(cluster)
        races = detect_races(collector.events)

    The collector hooks two emission points: the fabric (one-sided verbs
    from every queue pair) and each memory server (worker-local page
    access through :class:`~repro.index.accessors.LocalAccessor`).
    """

    def __init__(self) -> None:
        self.events: List[AccessEvent] = []
        self._cluster = None

    # -- attachment ----------------------------------------------------------

    def attach(self, cluster) -> "TraceCollector":
        """Start recording every remote-memory effect on *cluster*."""
        cluster.fabric.sanitizer = self
        for server in cluster.memory_servers:
            server.sanitizer = self
        self._cluster = cluster
        return self

    def detach(self, cluster=None) -> None:
        cluster = cluster if cluster is not None else self._cluster
        if cluster is None:
            return
        if cluster.fabric.sanitizer is self:
            cluster.fabric.sanitizer = None
        for server in cluster.memory_servers:
            if server.sanitizer is self:
                server.sanitizer = None
        self._cluster = None

    def __enter__(self) -> "TraceCollector":
        if self._cluster is None:
            raise AnalysisError("attach(cluster) before entering the collector")
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        actor: str,
        kind: str,
        verb: str,
        server: int,
        offset: int,
        length: int,
        time: float,
        lock_epoch: int = 0,
        label: str = "",
    ) -> None:
        self.events.append(
            AccessEvent(
                seq=len(self.events),
                actor=actor,
                kind=kind,
                verb=verb,
                server=server,
                offset=offset,
                length=length,
                time=time,
                lock_epoch=lock_epoch,
                label=label,
            )
        )

    def clear(self) -> None:
        self.events.clear()

    # -- persistence (the ``namsan sanitize`` CLI input format) --------------

    def dump(self, path: str) -> int:
        """Write the trace as JSON lines; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(asdict(event)) + "\n")
        return len(self.events)


def load_trace(path: str) -> List[AccessEvent]:
    """Read a JSONL trace written by :meth:`TraceCollector.dump`."""
    events: List[AccessEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                event = AccessEvent(**record)
            except (ValueError, TypeError) as exc:
                raise AnalysisError(
                    f"{path}:{lineno}: not a valid trace record: {exc}"
                ) from None
            if event.kind not in _KINDS:
                raise AnalysisError(
                    f"{path}:{lineno}: unknown event kind {event.kind!r}"
                )
            events.append(event)
    return events


def resequence(events: List[AccessEvent]) -> List[AccessEvent]:
    """Return *events* sorted into trace order (``seq``)."""
    return sorted(events, key=lambda event: event.seq)
