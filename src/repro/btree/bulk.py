"""Bottom-up bulk construction of B-link trees.

The paper's experiments load 10M-1B pre-sorted key/value pairs before
running any workload. Building that through the insert path would simulate
millions of uninteresting RDMA operations, so — like every real system —
we bulk-load: pages are constructed bottom-up and written straight into the
memory servers' regions at *construction time* (no simulated traffic).

Placement is a policy callback, which is exactly where the three designs
differ:

* coarse-grained: all pages of a partition tree on the partition's server;
* fine-grained: every page round-robin across all servers;
* hybrid: leaves round-robin across all servers, inner pages on the
  partition owner.

The loader also installs head nodes every ``head_interval`` leaves
(Section 4.3) and links each leaf to its group's head node.

Input arrives as key and value columns — a dataset's own, or
:func:`key_columns`' transpose of pairs — and a build checks them once
with :func:`check_columns` before any page is allocated, so a bulk load
accepts exactly what ``insert`` accepts.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.btree.node import MAX_KEY, TOMBSTONE_BIT, Node, NodeType, encode_leaves, fanout
from repro.btree.pointers import NULL_RAW, encode_pointer
from repro.errors import IndexError_

__all__ = ["PageSink", "BulkLoadResult", "bulk_load", "check_columns", "key_columns"]


class PageSink(Protocol):
    """Direct (non-simulated) page storage used at load time.

    The loader reserves and writes a *run* — consecutive pages of one
    server — at a time: each level's share of each server is one run.
    """

    page_size: int

    def alloc_run(self, server_id: int, pages: int) -> int:
        """Reserve *pages* consecutive pages on *server_id* with one
        allocation; returns the first page's byte offset."""

    def write_run(self, server_id: int, offset: int, data: bytes) -> None:
        """Store the image of a run of whole pages at *offset*."""


class BulkLoadResult:
    """What a bulk load produced."""

    def __init__(self) -> None:
        self.root_raw: int = NULL_RAW
        self.num_leaves = 0
        self.num_inner = 0
        self.num_heads = 0
        self.height = 0
        self.pages_per_server: Dict[int, int] = {}


def key_columns(pairs: Iterable[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    """Transpose *pairs* into a key column and a value column, for callers
    that hold pairs, and check them (:func:`check_columns`), so a caller
    that feeds :func:`bulk_load` directly is checked too. *pairs* is read
    once, so a one-shot iterable works."""
    rows = list(pairs)
    keys = list(map(itemgetter(0), rows))
    values = list(map(itemgetter(1), rows))
    check_columns(keys, values)
    return keys, values


def check_columns(keys: List[int], values: List[int]) -> None:
    """The one check a bulk load makes, before any page is allocated: the
    columns have equal lengths, keys are sorted (duplicates allowed) and in
    ``[0, MAX_KEY)`` — ``MAX_KEY`` is the rightmost high key, never a
    stored key — and payloads in ``[0, 2**63)``: bit 63 is the tombstone
    bit. That is what ``insert`` accepts. The order check is one sort in
    C, linear on sorted input, and the range checks then look at the ends
    of the key column and at the payloads' minimum and maximum. Raises
    :class:`IndexError_`.
    """
    if len(keys) != len(values):
        raise IndexError_(
            f"bulk load needs equal key and value columns: got {len(keys)} keys "
            f"and {len(values)} values"
        )
    if keys:
        if keys != sorted(keys):
            raise IndexError_("bulk load requires key-sorted input")
        if keys[0] < 0 or keys[-1] >= MAX_KEY:
            raise IndexError_(
                f"bulk-loaded keys must lie in [0, MAX_KEY): got {keys[0]}..{keys[-1]}"
            )
        if min(values) < 0 or max(values) >= TOMBSTONE_BIT:
            raise IndexError_(
                "bulk-loaded payloads must lie in [0, 2**63) (bit 63 is the tombstone bit)"
            )


def _chunk_runs(
    keys: Sequence[int], per_node: int, capacity: int
) -> List[Tuple[int, int]]:
    """Split ``range(len(keys))`` into ``[start, end)`` chunks of roughly
    *per_node* entries, never splitting a run of equal keys across chunks
    (duplicate runs must not straddle the leaf fence)."""
    chunks: List[Tuple[int, int]] = []
    total = len(keys)
    start = 0
    while start < total:
        end = min(start + per_node, total)
        while end < total and keys[end] == keys[end - 1]:
            end += 1
        if end - start > capacity:
            raise IndexError_(
                "a run of equal keys exceeds the page capacity; "
                "use a larger page size"
            )
        chunks.append((start, end))
        start = end
    return chunks


#: A level's runs: ``server -> (run offset, level positions of its pages)``.
_Runs = Dict[int, Tuple[int, List[int]]]


def bulk_load(
    keys: List[int],
    values: List[int],
    sink: PageSink,
    place_leaf: Callable[[int], int],
    place_inner: Callable[[int, int], int],
    fill: float = 0.7,
    head_interval: int = 0,
    place_head: Optional[Callable[[int], int]] = None,
    min_height: int = 1,
) -> BulkLoadResult:
    """Build a tree from the key and value columns of sorted pairs, as
    :func:`check_columns` accepts them, and return its root pointer.

    ``place_leaf(i)`` / ``place_inner(level, i)`` / ``place_head(i)`` map the
    i-th page of a level to a memory-server id. Empty columns produce a
    single empty leaf. The work is per level and server, not per pair: a
    level's pages are placed, then each server's share of the level is
    reserved as one run (one allocation), so every right pointer and high
    key is known; the level is encoded — the leaves vectorised over the
    columns (:func:`~repro.btree.node.encode_leaves`), head and inner
    nodes one by one — and each server's run is written as one image. A
    server's pages of a level keep the level's order, so every page lands
    where a page-at-a-time load would put it. The resulting tree always
    spans the full key domain ``[0, MAX_KEY)`` — partition bounds are
    enforced by routing, not by fences — so the runtime algorithms'
    move-right invariants hold.
    """
    result = BulkLoadResult()
    page_size = sink.page_size
    capacity = fanout(page_size)
    per_node = max(2, min(capacity, int(capacity * fill)))
    if place_head is None:
        place_head = place_leaf

    def reserve(servers: List[int]) -> Tuple[List[int], _Runs]:
        """Reserve a level whose i-th page goes on ``servers[i]``: one run
        per server. Returns each page's raw pointer, in level order, and
        ``server -> (run offset, the level positions of its pages)``."""
        members: Dict[int, List[int]] = {}
        for position, server in enumerate(servers):
            members.setdefault(server, []).append(position)
        raws = [NULL_RAW] * len(servers)
        runs: _Runs = {}
        for server, positions in members.items():
            offset = sink.alloc_run(server, len(positions))
            first = encode_pointer(server, offset)
            for rank, position in enumerate(positions):
                raws[position] = first + rank * page_size
            runs[server] = (offset, positions)
            result.pages_per_server[server] = (
                result.pages_per_server.get(server, 0) + len(positions)
            )
        return raws, runs

    def write(runs: _Runs, image: Callable[[List[int]], bytes]) -> None:
        """Write each server's run: *image* of its level positions."""
        for server, (offset, positions) in runs.items():
            sink.write_run(server, offset, image(positions))

    def write_nodes(runs: _Runs, nodes: List[Node]) -> None:
        write(runs, lambda positions: b"".join(
            [nodes[position].to_bytes(page_size) for position in positions]))

    def rights(raws: List[int]) -> List[int]:
        """Each node's right pointer: its right sibling's page, NULL for the
        last. (Its high key is that sibling's lower fence, ``MAX_KEY`` for
        the last.)"""
        return raws[1:] + [NULL_RAW]

    # ---- leaf level --------------------------------------------------------
    chunks = _chunk_runs(keys, per_node, capacity) if keys else [(0, 0)]
    leaf_ptrs, leaf_runs = reserve([place_leaf(i) for i in range(len(chunks))])
    # A child's lower fence in its parent: its first key, 0 for the leftmost.
    fences = [0] + [keys[start] for start, _end in chunks[1:]]
    result.num_leaves = len(chunks)

    # ---- head nodes (Section 4.3) -------------------------------------------
    leaf_heads = [NULL_RAW] * len(chunks)
    if head_interval and len(chunks) > 1:
        starts = range(0, len(chunks), head_interval)
        head_ptrs, head_runs = reserve([place_head(group) for group in range(len(starts))])
        heads: List[Node] = []
        for raw, right, start in zip(head_ptrs, rights(head_ptrs), starts):
            group = slice(start, start + head_interval)
            firsts = [keys[first] for first, _end in chunks[group]]
            heads.append(Node(NodeType.HEAD, 0, right=right, keys=firsts,
                              values=leaf_ptrs[group]))
            leaf_heads[group] = [raw] * len(firsts)
        write_nodes(head_runs, heads)
        result.num_heads = len(heads)

    pages = encode_leaves(
        page_size, keys, values, [start for start, _end in chunks] + [len(keys)],
        rights(leaf_ptrs), leaf_heads, fences[1:] + [MAX_KEY],
    )
    write(leaf_runs, lambda positions: pages[positions].tobytes())

    # ---- inner levels --------------------------------------------------------
    level = 1
    child_ptrs = leaf_ptrs
    while len(child_ptrs) > 1:
        starts = range(0, len(child_ptrs), per_node)
        inner_ptrs, inner_runs = reserve(
            [place_inner(level, i) for i in range(len(starts))]
        )
        inner_fences = [fences[start] for start in starts]
        write_nodes(inner_runs, [
            Node(NodeType.INNER, level, right=right, high_key=high_key,
                 keys=fences[start:start + per_node],
                 values=child_ptrs[start:start + per_node])
            for right, high_key, start in zip(
                rights(inner_ptrs), inner_fences[1:] + [MAX_KEY], starts
            )
        ])
        result.num_inner += len(inner_ptrs)
        child_ptrs = inner_ptrs
        fences = inner_fences
        level += 1

    # The hybrid design keeps all inner levels server-resident and needs at
    # least one inner node above the leaves even for tiny partitions.
    while level < min_height:
        root_ptrs, root_runs = reserve([place_inner(level, 0)])
        write_nodes(root_runs, [Node(NodeType.INNER, level, keys=[0], values=child_ptrs[:1])])
        result.num_inner += 1
        child_ptrs = root_ptrs
        level += 1

    result.root_raw = child_ptrs[0]
    result.height = level
    return result
