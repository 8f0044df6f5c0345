"""Epoch-based garbage collection (Sections 3.2, 4.2, 5.2).

Deletes only set a tombstone bit; physical removal happens out-of-band:

* coarse-grained: a sweeper per memory server compacts its own partition
  tree (local accessor);
* fine-grained: one *global* sweeper runs on a compute server and compacts
  leaves with one-sided verbs — the paper explains why it cannot run on the
  memory servers (local and remote atomics must not mix on the same words);
* hybrid: a global leaf sweeper on a compute server (the inner levels hold
  no tombstones).

The sweeper walks the leaf chain left to right; each epoch, any leaf with
tombstones is locked, compacted, and unlocked. The same walk optionally
rebuilds the head-node directory (Section 4.3: head nodes are refreshed
"in an epoch-based manner using an additional thread"), so leaves created
by splits regain prefetchability.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.node import Node, NodeType, is_tombstoned
from repro.btree.pointers import is_null
from repro.sim import Simulator

__all__ = ["EpochGarbageCollector"]


class EpochGarbageCollector:
    """Periodic leaf compaction (and optional head-node rebuild)."""

    def __init__(
        self,
        sim: Simulator,
        tree: BLinkTree,
        epoch_s: float = 0.05,
        rebuild_heads: bool = False,
        head_interval: int = 8,
    ) -> None:
        self.sim = sim
        self.tree = tree
        self.epoch_s = epoch_s
        self.rebuild_heads = rebuild_heads
        self.head_interval = head_interval
        self.stopped = False
        self.sweeps = 0
        self.entries_removed = 0
        self.heads_installed = 0

    def start(self):
        """Launch the background sweeper process."""
        return self.sim.process(self._run())

    def _run(self) -> Generator[Any, Any, None]:
        while not self.stopped:
            yield self.epoch_s
            if self.stopped:
                return
            yield from self.sweep()

    def sweep(self) -> Generator[Any, Any, Dict[str, int]]:
        """One epoch: walk the leaf chain, compact tombstoned leaves.

        Returns per-sweep statistics. Can also be called directly (tests,
        quiescent maintenance).
        """
        removed = 0
        leaves_seen = 0
        chain: List[Tuple[Optional[int], int]] = []  # (first key or None, raw_ptr)
        raw_ptr, node = yield from self.tree._descend_to_level(0, 0)
        while True:
            leaves_seen += 1
            if any(is_tombstoned(value) for value in node.values):
                compacted = yield from self._compact(raw_ptr)
                removed += compacted
                node = yield from self.tree._read_unlocked(raw_ptr)
            chain.append((node.keys[0] if node.keys else None, raw_ptr))
            if is_null(node.right):
                break
            raw_ptr = node.right
            node = yield from self.tree._read_unlocked(raw_ptr)
        if self.rebuild_heads and len(chain) > 1:
            yield from self._rebuild_heads(chain)
        self.sweeps += 1
        self.entries_removed += removed
        obs = self.tree.acc.obs
        if obs is not None:
            obs.gc_sweep(leaves_seen, removed)
        return {"leaves": leaves_seen, "removed": removed}

    def _compact(self, raw_ptr: int) -> Generator[Any, Any, int]:
        """Lock one leaf and drop its tombstoned entries; returns how many."""
        for _attempt in range(8):
            node = yield from self.tree._read_unlocked(raw_ptr)
            locked = yield from self.tree.acc.try_lock(raw_ptr, node.version)
            if not locked:
                yield from self.tree.acc.spin_pause()
                continue
            keep = [
                (key, value)
                for key, value in zip(node.keys, node.values)
                if not is_tombstoned(value)
            ]
            removed = node.count - len(keep)
            if not removed:
                yield from self.tree.acc.unlock_nochange(raw_ptr)
                return 0
            node.keys = [key for key, _ in keep]
            node.values = [value for _, value in keep]
            yield from self.tree.acc.unlock_write(raw_ptr, node)
            return removed
        return 0  # persistently contended: leave it for the next epoch

    def _rebuild_heads(
        self, chain: List[Tuple[Optional[int], int]]
    ) -> Generator[Any, Any, None]:
        """Re-create the head-node directory over the current leaf chain and
        point every leaf at its group's (new) head node.

        An empty leaf stays in its group but gets no entry in the head: it
        has no first key to be prefetched by, and without it a head's keys
        are sorted, which is what the scan's prefetch bisects."""
        acc = self.tree.acc
        groups = [
            chain[start : start + self.head_interval]
            for start in range(0, len(chain), self.head_interval)
        ]
        head_ptrs: List[int] = []
        for group in groups:
            listed = [(key, raw) for key, raw in group if key is not None]
            head = Node(
                NodeType.HEAD,
                level=0,
                keys=[first_key for first_key, _ in listed],
                values=[raw for _, raw in listed],
            )
            head_ptr = yield from acc.alloc(0)
            head_ptrs.append(head_ptr)
            yield from acc.write_node(head_ptr, head)
        for group_index, group in enumerate(groups):
            for _first_key, raw_ptr in group:
                yield from self._set_head(raw_ptr, head_ptrs[group_index])
        self.heads_installed += len(head_ptrs)

    def _set_head(self, raw_ptr: int, head_ptr: int) -> Generator[Any, Any, None]:
        """Update one leaf's head pointer under its lock."""
        for _attempt in range(4):
            node = yield from self.tree._read_unlocked(raw_ptr)
            if not node.is_leaf:
                return
            if node.head == head_ptr:
                return
            locked = yield from self.tree.acc.try_lock(raw_ptr, node.version)
            if not locked:
                yield from self.tree.acc.spin_pause()
                continue
            node.head = head_ptr
            yield from self.tree.acc.unlock_write(raw_ptr, node)
            return
