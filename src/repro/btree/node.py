"""B-link tree page layout and (de)serialization.

Every index node is a fixed-size page whose wire format is built from
little-endian 64-bit words (Figures 4-6 of the paper):

====  =======================================================================
word  contents
====  =======================================================================
0     lock + version word: bit 0 is the lock bit, the rest is the version
      counter (optimistic lock coupling, Section 3.1)
1     metadata: ``type | level << 8 | count << 16``
2     right-sibling remote pointer (B-link "move right" pointer)
3     leaves: remote pointer to this leaf's *head node* (Section 4.3);
      inner/head nodes: unused (NULL)
4     high key — exclusive upper bound of the node's key range
      (``MAX_KEY`` on the rightmost node of a level)
5..   entries: ``(key, value)`` pairs. For inner nodes the value is a child
      remote pointer and ``key[i]`` is the inclusive lower fence of child i;
      for leaves the value is the payload (bit 63 = tombstone delete bit);
      for head nodes entries map a leaf's first key to the leaf's pointer.
====  =======================================================================

The header is therefore 40 bytes and the fanout is ``(page_size - 40) // 16``
(e.g. 61 entries for the default 1 KiB page).
"""

from __future__ import annotations

import array
import struct
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.btree.pointers import NULL_RAW

__all__ = [
    "HEADER_BYTES",
    "MAX_KEY",
    "TOMBSTONE_BIT",
    "NodeType",
    "Node",
    "encode_leaves",
    "fanout",
    "strip_tombstone",
    "is_tombstoned",
]

HEADER_BYTES = 40
#: Reserved sentinel: no stored key may equal MAX_KEY.
MAX_KEY = (1 << 64) - 1
#: High bit of a leaf value marks the entry deleted (Sections 3.2/4.2).
TOMBSTONE_BIT = 1 << 63

_HEADER = struct.Struct("<QQQQQ")


class NodeType:
    """Page type tags stored in the metadata word."""

    INNER = 0
    LEAF = 1
    HEAD = 2


def fanout(page_size: int) -> int:
    """Maximum number of (key, value) entries a page of *page_size* holds."""
    slots = (page_size - HEADER_BYTES) // 16
    if slots < 4:
        raise IndexError_(f"page size {page_size} is too small for a B-link node")
    return slots


def is_tombstoned(value: int) -> bool:
    """True if the leaf *value* carries the delete bit."""
    return bool(value & TOMBSTONE_BIT)


def strip_tombstone(value: int) -> int:
    """The payload without its delete bit."""
    return value & ~TOMBSTONE_BIT


class Node:
    """A decoded page.

    Instances are plain mutable objects; the index designs fetch a page,
    decode it into a :class:`Node`, modify the copy, and write it back
    (exactly the copy-based protocol of Section 4.2). ``version`` holds the
    lock+version word observed when the page was read.

    ``live`` is the range scan's view of the image, ``(live_keys,
    live_pairs)``: the keys and ``(key, payload)`` pairs of the entries
    without a tombstone, built by :meth:`build_live` the first time a scan
    reads this object and kept on it from then on. Only an image nobody
    mutates may keep it — a decode memo's master — so every constructor,
    :meth:`from_bytes` and :meth:`clone` start it empty.
    """

    __slots__ = ("node_type", "level", "version", "right", "head", "high_key",
                 "keys", "values", "live")

    def __init__(
        self,
        node_type: int,
        level: int,
        version: int = 0,
        right: int = NULL_RAW,
        head: int = NULL_RAW,
        high_key: int = MAX_KEY,
        keys: Optional[List[int]] = None,
        values: Optional[List[int]] = None,
    ) -> None:
        self.node_type = node_type
        self.level = level
        self.version = version
        self.right = right
        self.head = head
        self.high_key = high_key
        self.keys = keys if keys is not None else []
        self.values = values if values is not None else []
        self.live: Optional[Tuple[List[int], List[Tuple[int, int]]]] = None

    # -- predicates ----------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.node_type == NodeType.LEAF

    @property
    def is_inner(self) -> bool:
        return self.node_type == NodeType.INNER

    @property
    def is_head(self) -> bool:
        return self.node_type == NodeType.HEAD

    @property
    def is_locked(self) -> bool:
        return bool(self.version & 1)

    @property
    def count(self) -> int:
        return len(self.keys)

    def covers(self, key: int) -> bool:
        """True if *key* falls below this node's high key (no move-right needed)."""
        return key < self.high_key

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_bytes(cls, data) -> "Node":
        """Decode a page image (as fetched by an RDMA READ).

        *data* may be ``bytes``, ``bytearray`` or a ``memoryview`` — the
        co-located fast path hands in a read-only view straight into the
        registered region (:meth:`MemoryRegion.read_view`) and decoding
        copies nothing but the entry words themselves.
        """
        size = len(data)
        if size < HEADER_BYTES:
            raise IndexError_(f"page image too small: {size} bytes")
        version, meta, right, head, high_key = _HEADER.unpack_from(data)
        count = (meta >> 16) & 0xFFFF
        end = HEADER_BYTES + 16 * count
        if end > size:
            raise IndexError_("page image truncated: count exceeds page size")
        words = memoryview(data)[HEADER_BYTES:end].cast("Q")
        # Hot path (every remote page fetch): fill the slots directly
        # instead of routing through __init__'s defaulted signature.
        node = cls.__new__(cls)
        node.node_type = meta & 0xFF
        node.level = (meta >> 8) & 0xFF
        node.version = version
        node.right = right
        node.head = head
        node.high_key = high_key
        node.keys = list(words[0::2])
        node.values = list(words[1::2])
        node.live = None
        return node

    def to_bytes(self, page_size: int) -> bytearray:
        """Encode this node as a page image of exactly *page_size* bytes.

        Serializes directly into one buffer: header packed in place, entry
        words written through a strided memoryview (keys to even slots,
        values to odd), no intermediate interleaved array and no final
        copy. The returned bytearray is freshly allocated and unaliased, so
        callers may write it to a region or hand it to a queue pair as-is.
        """
        count = len(self.keys)
        if count != len(self.values):
            raise IndexError_("node has mismatched key/value counts")
        if HEADER_BYTES + 16 * count > page_size:
            raise IndexError_(
                f"node with {count} entries does not fit a {page_size}-byte page"
            )
        meta = (self.node_type & 0xFF) | ((self.level & 0xFF) << 8) | (count << 16)
        page = bytearray(page_size)
        _HEADER.pack_into(page, 0, self.version, meta, self.right, self.head,
                          self.high_key)
        if count:
            base = HEADER_BYTES // 8
            words = memoryview(page).cast("Q")
            words[base : base + 2 * count : 2] = memoryview(
                array.array("Q", self.keys)
            )
            words[base + 1 : base + 2 * count : 2] = memoryview(
                array.array("Q", self.values)
            )
            words.release()
        return page

    def clone(self) -> "Node":
        """An independent mutable copy sharing no list state.

        Every read hands out the decode memo's master, which nobody may
        mutate. A writer clones it once its lock CAS has succeeded and
        changes the clone; the unlock then makes that clone the master of
        the version it writes.
        """
        node = Node.__new__(Node)
        node.node_type = self.node_type
        node.level = self.level
        node.version = self.version
        node.right = self.right
        node.head = self.head
        node.high_key = self.high_key
        node.keys = self.keys[:]
        node.values = self.values[:]
        node.live = None
        return node

    # -- searching -------------------------------------------------------------

    def build_live(self) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Leaf: build and keep :attr:`live`, the sorted keys and the
        ``(key, payload)`` pairs of the entries without a tombstone.

        Without a tombstone in the image — the test is ``max`` over the
        payloads, in C — ``live_keys`` *is* :attr:`keys`, not a copy.
        """
        keys = self.keys
        values = self.values
        if values and max(values) >> 63:
            pairs = [pair for pair in zip(keys, values) if not pair[1] & TOMBSTONE_BIT]
            live = ([key for key, _value in pairs], pairs)
        else:
            live = (keys, list(zip(keys, values)))
        self.live = live
        return live

    def find_child(self, key: int) -> int:
        """Inner node: raw pointer of the child whose range contains *key*.

        Assumes ``key < high_key`` (callers move right first). ``keys[i]``
        is the inclusive lower fence of child i, so the child is the last
        entry with fence <= key.
        """
        index = bisect_right(self.keys, key) - 1
        if index < 0:
            # Should not happen on a well-formed tree (the leftmost fence is
            # the minimum key); be conservative and take the first child.
            index = 0
        return self.values[index]

    def leaf_matches(self, key: int) -> List[int]:
        """Leaf: all live payloads stored under *key* (duplicates included)."""
        out = []
        index = bisect_left(self.keys, key)
        while index < len(self.keys) and self.keys[index] == key:
            value = self.values[index]
            if not is_tombstoned(value):
                out.append(value)
            index += 1
        return out

    def insert_entry(self, key: int, value: int) -> None:
        """Insert ``(key, value)`` keeping keys sorted (duplicates allowed)."""
        index = bisect_right(self.keys, key)
        self.keys.insert(index, key)
        self.values.insert(index, value)

    def choose_split_index(self) -> int:
        """Pick a split position near the middle, preferring a boundary
        between distinct keys so duplicate runs do not straddle nodes."""
        count = len(self.keys)
        middle = count // 2
        # Walk outward from the middle looking for a distinct-key boundary.
        for step in range(count):
            hi = middle + step
            if 0 < hi < count and self.keys[hi - 1] != self.keys[hi]:
                return hi
            lo = middle - step
            if 0 < lo < count and self.keys[lo - 1] != self.keys[lo]:
                return lo
        return middle  # all keys equal: the caller must handle the run

    def split(self) -> Tuple["Node", int]:
        """Split this node in place; returns ``(new_right_node, split_key)``.

        The new node takes the upper half of the entries plus this node's
        high key and right pointer; this node's high key becomes the split
        key. The caller is responsible for linking ``self.right`` to the new
        node's pointer once it is allocated, and for installing the
        separator in the parent level.
        """
        at = self.choose_split_index()
        if at <= 0 or at >= len(self.keys):
            raise IndexError_("refusing to split into an empty node")
        if self.keys[at - 1] == self.keys[at]:
            raise IndexError_(
                "cannot split inside a run of equal keys; a single key's "
                "duplicates are limited to one page (use a larger page size "
                "or composite keys for heavier duplication)"
            )
        split_key = self.keys[at]
        sibling = Node(
            self.node_type,
            self.level,
            version=0,
            right=self.right,
            head=self.head,
            high_key=self.high_key,
            keys=self.keys[at:],
            values=self.values[at:],
        )
        del self.keys[at:]
        del self.values[at:]
        self.high_key = split_key
        return sibling, split_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {0: "inner", 1: "leaf", 2: "head"}.get(self.node_type, "?")
        return (
            f"Node({kind}, level={self.level}, count={self.count}, "
            f"high={self.high_key:#x}, v={self.version})"
        )


def encode_leaves(
    page_size: int,
    keys: Sequence[int],
    values: Sequence[int],
    bounds: Sequence[int],
    rights: Sequence[int],
    heads: Sequence[int],
    high_keys: Sequence[int],
) -> np.ndarray:
    """Encode a level of fresh leaves at once: leaf *i* holds the entries
    ``keys[bounds[i]:bounds[i + 1]]`` / ``values[...]`` and the *i*-th
    right pointer, head pointer and high key, at version 0.

    Returns a ``(leaves, page_size)`` ``uint8`` array whose row *i* is
    byte for byte what :meth:`Node.to_bytes` makes of that leaf, built
    vectorised over the key and value columns instead of node by node —
    the bulk loader's leaf level. ``bounds`` starts at 0, ends at
    ``len(keys)`` and never puts more than :func:`fanout` entries in a
    leaf.
    """
    leaves = len(bounds) - 1
    bound = np.asarray(bounds, dtype=np.int64)
    counts = np.diff(bound)
    pages = np.zeros((leaves, page_size), dtype=np.uint8)
    words = pages[:, : page_size // 8 * 8].view(np.uint64)
    words[:, 1] = (counts << 16) | NodeType.LEAF
    words[:, 2] = np.asarray(rights, dtype=np.uint64)
    words[:, 3] = np.asarray(heads, dtype=np.uint64)
    words[:, 4] = np.asarray(high_keys, dtype=np.uint64)
    if len(keys):
        # Entry j of the column lands in its leaf's row at word
        # 5 + 2 * (j - first entry of that leaf): keys even, values odd.
        row = np.repeat(np.arange(leaves), counts)
        slot = HEADER_BYTES // 8 + 2 * (np.arange(len(keys)) - bound[:-1][row])
        words[row, slot] = np.asarray(keys, dtype=np.uint64)
        words[row, slot + 1] = np.asarray(values, dtype=np.uint64)
    return pages
