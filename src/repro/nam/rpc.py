"""The one RPC message of the two-sided designs.

The coarse-grained design ships whole operations to the data (Section 3.2);
the hybrid design ships only inner-level traversals and separator
installations (Section 5.2). Either way the network needs one thing from
the message — its size — so there is one request, :class:`TreeCall`: an
operation name, the index, the logical partition it targets (a promoted
host serves partitions besides its own) and the operation's 8-byte keys,
values or pointers. It is sized ``RPC_HEADER_BYTES + 8 * len(args)``.

A handler answers with a plain value — a list of payloads, a list of
pairs, a bool, a pointer or None — and that value's wire size
(``RPC_HEADER_BYTES`` plus 8 bytes per payload or pointer, 16 per pair);
the value is what the client's call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

__all__ = ["RPC_HEADER_BYTES", "TreeCall", "ThrottledResponse", "MUTATING_OPS"]

RPC_HEADER_BYTES = 24


class TreeCall(NamedTuple):
    """One tree operation on one partition, as a memory server receives it."""

    #: The handler's name: ``lookup``, ``range_scan``, ``insert``,
    #: ``update``, ``delete``, ``traverse`` or ``install_separator``.
    op: str
    index: str
    partition: int
    args: Tuple[int, ...]

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 8 * len(self.args)


@dataclass(frozen=True)
class ThrottledResponse:
    """Admission control bounced the request before it reached a worker.

    Shipped NIC-side when a memory server's bounded queue is full or a
    tenant's token bucket is empty (docs/overload.md); the client's queue
    pair translates it into :class:`~repro.errors.ThrottledError` /
    :class:`~repro.errors.AdmissionRejectedError`. The ``throttled`` marker
    lets the rdma layer detect it without importing this module.
    """

    #: Why admission refused: ``"rate-limit"`` or ``"queue-full"``.
    reason: str = "queue-full"

    #: Class-level marker checked by :meth:`repro.rdma.qp.QueuePair.call`.
    throttled = True

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES


#: Operations whose handlers mutate index pages; under replication the
#: worker loop charges mirror legs for these before acknowledging.
MUTATING_OPS = frozenset({"insert", "update", "delete", "install_separator"})
