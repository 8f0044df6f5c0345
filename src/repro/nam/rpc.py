"""RPC message vocabulary for the two-sided designs.

The coarse-grained design ships whole operations to the data (Section 3.2);
the hybrid design ships only inner-level traversals and separator
installations (Section 5.2). Messages are plain dataclasses; their
``wire_bytes`` reflect the sizes a real implementation would serialize
(8-byte keys/values/pointers plus a small header) and drive both network
and CPU-copy cost accounting. Every request names the logical
``partition`` it targets — a promoted host serves partitions besides its
own — and the index designs always set it; left unset (-1), a custom
handler serves the server the request arrives at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "RPC_HEADER_BYTES",
    "PointLookupRequest",
    "RangeScanRequest",
    "InsertRequest",
    "UpdateRequest",
    "DeleteRequest",
    "TraverseRequest",
    "InstallSeparatorRequest",
    "ValueResponse",
    "PairsResponse",
    "AckResponse",
    "PointerResponse",
    "ThrottledResponse",
    "MUTATING_REQUESTS",
]

RPC_HEADER_BYTES = 24


@dataclass(frozen=True)
class PointLookupRequest:
    """Workload A point query, executed entirely on the memory server."""

    index: str
    key: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 8


@dataclass(frozen=True)
class RangeScanRequest:
    """Workload B range query ``[low, high)`` over one server's partition."""

    index: str
    low: int
    high: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 16


@dataclass(frozen=True)
class InsertRequest:
    index: str
    key: int
    value: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 16


@dataclass(frozen=True)
class UpdateRequest:
    """Replace the first live payload under ``key`` (in-place write)."""

    index: str
    key: int
    value: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 16


@dataclass(frozen=True)
class DeleteRequest:
    index: str
    key: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 8


@dataclass(frozen=True)
class TraverseRequest:
    """Hybrid design: traverse the server-resident inner levels and return a
    remote pointer to the leaf covering *key* (Section 5.2)."""

    index: str
    key: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 8


@dataclass(frozen=True)
class InstallSeparatorRequest:
    """Hybrid design: after a client-side leaf split, install the separator
    into the server-resident inner levels."""

    index: str
    separator: int
    new_child: int
    split_child: int

    #: Logical partition this request targets (module docstring).
    partition: int = -1

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 24


@dataclass(frozen=True)
class ValueResponse:
    """Payloads matching a point lookup (non-unique keys: possibly several)."""

    values: Tuple[int, ...]

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 8 * len(self.values)


@dataclass(frozen=True)
class PairsResponse:
    """Qualifying (key, payload) pairs of a range scan."""

    pairs: Tuple[Tuple[int, int], ...]

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 16 * len(self.pairs)


@dataclass(frozen=True)
class AckResponse:
    """Completion acknowledgement (inserts, deletes, separator installs)."""

    ok: bool = True

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES


@dataclass(frozen=True)
class PointerResponse:
    """A raw remote pointer (hybrid traversals)."""

    raw: int

    @property
    def wire_bytes(self) -> int:
        return RPC_HEADER_BYTES + 8


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


#: Request types whose handlers mutate index pages; under replication the
#: worker loop charges mirror legs for these before acknowledging.
MUTATING_REQUESTS = (
    InsertRequest,
    UpdateRequest,
    DeleteRequest,
    InstallSeparatorRequest,
)
