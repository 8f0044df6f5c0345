"""Registered memory regions.

A :class:`MemoryRegion` is the simulated equivalent of an RDMA-registered
memory area on a memory server: a byte-addressable buffer that remote
endpoints can READ/WRITE at arbitrary offsets and on which 8-byte atomic
verbs (compare-and-swap, fetch-and-add) operate. Index pages really are
serialized into these buffers, so transfer sizes and atomic semantics are
exact, not estimated.

A region has two lengths. Its *logical* length, ``len(region)``, starts
at the configured initial size and grows on demand in whole 1 MiB chunks
up to a configured maximum; every offset below it is addressable. Its
*materialised* length is how much of that is backed by a ``bytearray``:
the buffer is allocated only as far as an access has reached (doubling
from 64 KiB, never past the logical length), and every byte beyond it
reads as zero. A cluster's regions are sized for the largest bulk load
but hold a few hundred kilobytes of pages, so nobody pays to zero-fill
the rest. Any access past the materialised end — a read, a write or an
atomic — extends the buffer, which is why a live :meth:`read_view` makes
such an access raise ``BufferError`` (see :meth:`MemoryRegion.read_view`).

Replication support: a region may have *mirror* regions attached
(:meth:`MemoryRegion.attach_mirror`). Every mutation — WRITE and the
atomics, which route through :meth:`write_u64` — is propagated to the
mirrors synchronously, byte for byte, so a backup replica is always a
prefix-exact copy of its primary. The *timing* of replication traffic is
charged separately by the queue-pair/worker layers
(:class:`repro.nam.replication.ReplicationManager`); this class only keeps
the state converged. With no mirrors attached (``replication_factor == 1``)
the propagation check is a single falsy test and behavior is identical to
the unreplicated build.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.errors import RemoteAccessError

__all__ = ["MemoryRegion"]

_U64 = struct.Struct("<Q")
_GROW_CHUNK = 1 << 20  # 1 MiB: the step of the logical length
_FIRST_MATERIALISED = 1 << 16  # 64 KiB: the first buffer; it doubles from there


class MemoryRegion:
    """A growable, bounds-checked byte buffer with 8-byte atomics.

    ``len(region)`` is the logical length: *initial_bytes*, then whole
    1 MiB chunks as accesses reach past it, up to *max_bytes*. Only the
    prefix an access has touched is materialised (``_buf``); the rest
    reads as zeros, through :meth:`read`, :meth:`read_view`,
    :meth:`read_u64` and the atomics alike, which materialise it first.

    Every access method — the bulk ones, the word ones and the atomics —
    raises :class:`~repro.errors.RemoteAccessError` on a negative offset
    and calls :meth:`_ensure` only when it reaches past the materialised
    end; inside it, an access is comparisons and the buffer operation.
    """

    def __init__(self, initial_bytes: int, max_bytes: int) -> None:
        if initial_bytes < 0 or max_bytes < initial_bytes:
            raise RemoteAccessError(
                f"invalid region sizing: initial={initial_bytes}, max={max_bytes}"
            )
        self._size = initial_bytes
        self._buf = bytearray()
        # The materialised length, ``len(self._buf)``, kept as an int so the
        # access path tests it without a call; only :meth:`_ensure` grows it.
        self._end = 0
        self.max_bytes = max_bytes
        self._mirrors: List["MemoryRegion"] = []
        # Lazily-built read-only master view of ``_buf``; every
        # :meth:`read_view` is a slice of it (one allocation instead of
        # three). Dropped before the buffer grows — see :meth:`_ensure`.
        self._view: Optional[memoryview] = None

    def __len__(self) -> int:
        return self._size

    # -- replication mirrors -------------------------------------------------

    def attach_mirror(self, mirror: "MemoryRegion") -> None:
        """Propagate every future mutation of this region into *mirror*."""
        if mirror is self:
            raise RemoteAccessError("a region cannot mirror itself")
        if mirror not in self._mirrors:
            self._mirrors.append(mirror)

    def detach_mirror(self, mirror: "MemoryRegion") -> None:
        """Stop propagating into *mirror* (no-op if it was not attached)."""
        if mirror in self._mirrors:
            self._mirrors.remove(mirror)

    def wipe(self) -> None:
        """Zero the buffer in place (a destructive crash). Mirror links are
        managed by the caller; the region keeps its logical length."""
        self._buf[:] = bytes(self._end)

    def _ensure(self, end: int) -> None:
        materialised = self._end
        if end <= materialised:
            return
        size = self._size
        if end > size:
            if end > self.max_bytes:
                raise RemoteAccessError(
                    f"access at {end} exceeds region maximum of {self.max_bytes} bytes"
                )
            # The logical length grows in whole chunks, so one access far
            # past the end leaves the length that page-by-page appends would.
            size += (end - size + _GROW_CHUNK - 1) // _GROW_CHUNK * _GROW_CHUNK
            if size > self.max_bytes:
                size = self.max_bytes
        # Materialise up to *end*, at least doubling the buffer so repeated
        # appends stay amortized O(1), never past the logical length. No
        # builtin is called from here on, so a write past the materialised
        # end makes the calls any other write makes (nambench counts them).
        # The master view is dropped first, since a bytearray cannot be
        # resized while any export is alive; caller-held slices still block
        # the resize (the read_view hazard).
        target = materialised * 2
        if target < _FIRST_MATERIALISED:
            target = _FIRST_MATERIALISED
        if target < end:
            target = end
        if target > size:
            target = size
        self._view = None
        self._buf += bytes(target - materialised)
        self._end = target
        self._size = size

    # -- bulk access ---------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Copy *length* bytes starting at *offset* (zeros if never written)."""
        if offset < 0 or length < 0:
            raise RemoteAccessError(f"bad read at offset={offset}, length={length}")
        end = offset + length
        if end > self._end:
            self._ensure(end)
        # Slice through the master view: one copy into the result instead
        # of bytearray-slice-then-bytes (two).
        view = self._view
        if view is None:
            view = self._view = memoryview(self._buf).toreadonly()
        return bytes(view[offset:end])

    def read_view(self, offset: int, length: int) -> memoryview:
        """A zero-copy read-only view of *length* bytes at *offset*.

        Hazard: while any view is alive the underlying bytearray cannot
        grow, so any access past the *materialised* end — a write, a read
        or an atomic, inside the logical length or beyond it — raises
        ``BufferError``. Views are therefore for *immediate* consumption on
        the co-located fast path (parse a page, drop the view) — never hold
        one across a simulation yield or stash it in a cache. See
        docs/performance.md.
        """
        if offset < 0 or length < 0:
            raise RemoteAccessError(f"bad read at offset={offset}, length={length}")
        end = offset + length
        if end > self._end:
            self._ensure(end)
        view = self._view
        if view is None:
            view = self._view = memoryview(self._buf).toreadonly()
        return view[offset:end]

    def write(self, offset: int, data: bytes, length: Optional[int] = None) -> None:
        """Store *data* at *offset*. *length*, when given, is ``len(data)``
        as the caller already holds it (a WRITE's work-queue entry)."""
        if offset < 0:
            raise RemoteAccessError(f"bad write at offset={offset}")
        if length is None:
            length = len(data)
        end = offset + length
        if end > self._end:
            self._ensure(end)
        self._buf[offset:end] = data
        if self._mirrors:
            for mirror in self._mirrors:
                mirror.write(offset, data, length)

    # -- 8-byte word access (the granularity of RDMA atomics) ----------------
    #
    # A negative offset must not reach struct, which counts it back from the
    # end of the buffer: each method below rejects one before it does.

    def read_u64(self, offset: int) -> int:
        """The 8-byte word at *offset* (zero if never written)."""
        if offset < 0:
            raise RemoteAccessError(f"bad word read at offset={offset}")
        if offset + 8 > self._end:
            self._ensure(offset + 8)
        return _U64.unpack_from(self._buf, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        """Store the 8-byte word *value* (mod 2**64) at *offset*."""
        # CAS and FETCH_AND_ADD mutate through here, so this single hook
        # (plus :meth:`write`) covers every way a region changes.
        if offset < 0:
            raise RemoteAccessError(f"bad word write at offset={offset}")
        if offset + 8 > self._end:
            self._ensure(offset + 8)
        _U64.pack_into(self._buf, offset, value & 0xFFFFFFFFFFFFFFFF)
        if self._mirrors:
            for mirror in self._mirrors:
                mirror.write_u64(offset, value)

    def compare_and_swap(self, offset: int, expected: int, new: int) -> Tuple[bool, int]:
        """Atomic 8-byte CAS; returns ``(swapped, old_value)``.

        Like the RDMA verb, the old value is returned whether or not the
        swap happened.
        """
        if offset < 0:
            raise RemoteAccessError(f"bad atomic at offset={offset}")
        if offset + 8 > self._end:
            self._ensure(offset + 8)
        old = _U64.unpack_from(self._buf, offset)[0]
        if old == expected:
            self.write_u64(offset, new)
            return True, old
        return False, old

    def fetch_and_add(self, offset: int, delta: int) -> int:
        """Atomic 8-byte fetch-and-add; returns the value before the add."""
        if offset < 0:
            raise RemoteAccessError(f"bad atomic at offset={offset}")
        if offset + 8 > self._end:
            self._ensure(offset + 8)
        old = _U64.unpack_from(self._buf, offset)[0]
        self.write_u64(offset, (old + delta) & 0xFFFFFFFFFFFFFFFF)
        return old
