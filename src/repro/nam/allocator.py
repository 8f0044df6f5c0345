"""Page allocation inside a memory server's registered region.

Region layout::

    offset 0        : allocation bump word (next free page offset)
    offset 8..      : reserved control words
    page_size ..    : index pages, page-aligned

The bump word is an ordinary 8-byte word in registered memory, so *remote*
clients allocate pages with a one-sided FETCH_AND_ADD on it (this is how the
fine-grained design implements ``RDMA_ALLOC`` from Listing 4 without
involving the server CPU). Server-local code allocates through
:meth:`PageAllocator.allocate` with a local FETCH_AND_ADD on the same word.
Pages are never returned (the epoch garbage collector compacts leaves in
place and unlinks none), so a page is never handed out twice.
``Cluster.decode_memo`` relies on that: a page that could be reused would
need its memo entry dropped first.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.rdma.memory import MemoryRegion

__all__ = ["ALLOC_WORD_OFFSET", "PageAllocator"]

#: Region offset of the allocation bump word.
ALLOC_WORD_OFFSET = 0


class PageAllocator:
    """Bump allocator over a memory region."""

    def __init__(self, region: MemoryRegion, page_size: int) -> None:
        self.region = region
        self.page_size = page_size
        # The first page holds the control words; pages start after it.
        region.write_u64(ALLOC_WORD_OFFSET, page_size)

    @classmethod
    def adopt(cls, region: MemoryRegion, page_size: int) -> "PageAllocator":
        """An allocator over a region that *already contains data* — a
        promoted backup replica. Unlike ``__init__`` it must not reset the
        bump word (that would let new allocations overwrite live pages);
        the replicated bump word keeps allocating where the dead primary
        left off."""
        allocator = cls.__new__(cls)
        allocator.region = region
        allocator.page_size = page_size
        if region.read_u64(ALLOC_WORD_OFFSET) < page_size:
            # A never-initialized store (nothing was ever replicated into
            # it); fall back to a fresh layout.
            region.write_u64(ALLOC_WORD_OFFSET, page_size)
        return allocator

    def allocate(self) -> int:
        """Reserve one page locally; returns its byte offset."""
        offset = self.region.fetch_and_add(ALLOC_WORD_OFFSET, self.page_size)
        if offset + self.page_size > self.region.max_bytes:
            raise AllocationError(
                f"memory server region exhausted at offset {offset}"
            )
        return offset

    def allocate_run(self, pages: int) -> int:
        """Reserve *pages* consecutive pages with one local FETCH_AND_ADD;
        returns the first page's byte offset. The bulk loader reserves a
        level's share of one server this way: the pages and their order
        are those *pages* calls of :meth:`allocate` would hand out.
        :meth:`allocate` does not delegate here: every server-local split
        takes it, and would pay for the extra call."""
        run_bytes = pages * self.page_size
        offset = self.region.fetch_and_add(ALLOC_WORD_OFFSET, run_bytes)
        if offset + run_bytes > self.region.max_bytes:
            raise AllocationError(
                f"memory server region exhausted at offset {offset}"
            )
        return offset

    @property
    def pages_allocated(self) -> int:
        """Pages handed out so far (including remotely bump-allocated ones)."""
        return self.region.read_u64(ALLOC_WORD_OFFSET) // self.page_size - 1
