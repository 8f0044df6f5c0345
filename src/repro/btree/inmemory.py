"""In-memory node storage for standalone B-link tree use.

The distributed designs run :class:`~repro.btree.algorithm.BLinkTree`
against RDMA-backed accessors; this module provides a self-contained
single-process accessor so the same algorithms can be used (and tested)
without a cluster::

    from repro.btree import BLinkTree
    from repro.btree.inmemory import InMemoryAccessor, InMemoryRootRef, drive

    acc = InMemoryAccessor(page_size=512)
    tree = BLinkTree(acc, InMemoryRootRef(acc))
    drive(tree.insert(7, 70))
    assert drive(tree.lookup(7)) == [70]

Operations never suspend in single-threaded use (there is nobody to hold a
lock), so :func:`drive` runs a tree-operation generator to completion
without a simulator.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Generator

from repro.btree.accessor import NodeAccessor, RootRef
from repro.btree.node import MAX_KEY, Node, NodeType
from repro.btree.pointers import encode_pointer
from repro.errors import IndexError_, SimulationError

__all__ = ["InMemoryAccessor", "InMemoryRootRef", "drive"]

_U64 = struct.Struct("<Q")


def drive(generator: Generator) -> Any:
    """Run a tree-operation generator that never needs to suspend."""
    try:
        yielded = next(generator)
    except StopIteration as stop:
        return stop.value
    raise SimulationError(
        f"operation suspended on {yielded!r}; single-threaded in-memory "
        "trees should never block (is a lock stuck?)"
    )


class InMemoryAccessor(NodeAccessor):
    """Pages in a plain dict; all operations complete immediately."""

    def __init__(self, page_size: int = 512) -> None:
        self.page_size = page_size
        self._pages: Dict[int, bytearray] = {}
        self._next_offset = page_size

    # -- plumbing ----------------------------------------------------------

    def _page(self, raw_ptr: int) -> bytearray:
        try:
            return self._pages[raw_ptr]
        except KeyError:
            raise IndexError_(f"no page at pointer {raw_ptr:#x}") from None

    # -- NodeAccessor interface ------------------------------------------------

    def read_node(
        self, raw_ptr: int, _ignored: bool = False
    ) -> Generator[Any, Any, Node]:
        return Node.from_bytes(bytes(self._page(raw_ptr)))
        yield  # pragma: no cover - unreachable; makes this a generator

    def write_node(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        self._pages[raw_ptr] = bytearray(node.to_bytes(self.page_size))
        return None
        yield  # pragma: no cover - unreachable; makes this a generator

    def try_lock(self, raw_ptr: int, version: int) -> Generator[Any, Any, bool]:
        page = self._page(raw_ptr)
        current = _U64.unpack_from(page, 0)[0]
        if current != version:
            return False
        _U64.pack_into(page, 0, version | 1)
        return True
        yield  # pragma: no cover - unreachable; makes this a generator

    def unlock_write(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        node.version |= 1
        page = bytearray(node.to_bytes(self.page_size))
        _U64.pack_into(page, 0, node.version + 1)
        self._pages[raw_ptr] = page
        return None
        yield  # pragma: no cover - unreachable; makes this a generator

    def unlock_nochange(self, raw_ptr: int) -> Generator[Any, Any, None]:
        page = self._page(raw_ptr)
        current = _U64.unpack_from(page, 0)[0]
        _U64.pack_into(page, 0, current + 1)
        return None
        yield  # pragma: no cover - unreachable; makes this a generator

    def alloc(self, level: int) -> Generator[Any, Any, int]:
        offset = self._next_offset
        self._next_offset += self.page_size
        raw = encode_pointer(0, offset)
        self._pages[raw] = bytearray(self.page_size)
        return raw
        yield  # pragma: no cover - unreachable; makes this a generator

    def spin_pause(self) -> Generator[Any, Any, None]:
        raise SimulationError(
            "single-threaded in-memory tree hit a held lock"
        )
        yield  # pragma: no cover - unreachable; makes this a generator

    @property
    def num_pages(self) -> int:
        return len(self._pages)


class InMemoryRootRef(RootRef):
    """Root pointer for an in-memory tree; creates an empty leaf root."""

    def __init__(self, accessor: InMemoryAccessor) -> None:
        self.accessor = accessor
        root = drive(accessor.alloc(0))
        drive(
            accessor.write_node(
                root, Node(NodeType.LEAF, level=0, high_key=MAX_KEY)
            )
        )
        self._root = root

    def get(self) -> Generator[Any, Any, int]:
        return self._root
        yield  # pragma: no cover - unreachable; makes this a generator

    def refresh(self) -> Generator[Any, Any, int]:
        return self._root
        yield  # pragma: no cover - unreachable; makes this a generator

    def compare_and_swap(self, old: int, new: int) -> Generator[Any, Any, bool]:
        if self._root != old:
            return False
        self._root = new
        return True
        yield  # pragma: no cover - unreachable; makes this a generator
