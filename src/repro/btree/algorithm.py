"""Distribution-agnostic B-link tree operations.

This module implements the logical index operations of the paper — point
lookup, range scan, insert (with leaf/inner/root splits) and delete (via
tombstone bits) — once, against the :class:`~repro.btree.accessor.NodeAccessor`
interface. Each index design instantiates :class:`BLinkTree` with its own
accessor (local for the coarse-grained design, one-sided-remote for the
fine-grained design, mixed for the hybrid).

Concurrency follows Lehman/Yao B-link trees with the paper's optimistic
lock coupling flavour (Listings 1-4):

* readers never lock; they rely on atomic page reads plus "move right"
  through sibling pointers to survive concurrent splits;
* writers lock exactly one node at a time with a CAS on the version word
  and restart on conflict;
* a split installs the new right sibling *before* unlocking the split node,
  leaving at worst a reachable half-split state, then ascends to install
  the separator (retrying from the root, tolerating concurrent splits and
  root growth).

All public methods are simulation processes (drive them with
``yield from`` inside a process, or ``Simulator.run_until_complete``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.btree.accessor import NodeAccessor, RootRef
from repro.btree.node import (
    MAX_KEY,
    TOMBSTONE_BIT,
    Node,
    NodeType,
    fanout,
    is_tombstoned,
)
from repro.btree.pointers import NULL_RAW, is_null
from repro.errors import IndexError_

__all__ = ["BLinkTree"]


class BLinkTree:
    """B-link tree operations over an abstract node accessor.

    ``use_head_nodes`` enables the Section 4.3 range-scan optimization:
    when a scanned leaf carries a head-node pointer, the scan reads the
    head and prefetches the next leaves in parallel instead of chasing
    sibling pointers one round trip at a time.
    """

    def __init__(
        self,
        accessor: NodeAccessor,
        root_ref: RootRef,
        use_head_nodes: bool = False,
        prefetch_window: int = 8,
    ) -> None:
        self.acc = accessor
        self.root = root_ref
        self.max_entries = fanout(accessor.page_size)
        self.use_head_nodes = use_head_nodes
        self.prefetch_window = prefetch_window
        #: Optional no-arg callback fired after this tree modifies an
        #: *inner* node (separator install, inner split, root growth).
        #: The index designs wire it to the catalog's per-index structure
        #: epoch so client-side caches know their images may be stale
        #: (docs/caching.md). Pure bookkeeping: never schedules events.
        self.on_structure_change: Optional[Callable[[], None]] = None

    def _structure_changed(self) -> None:
        callback = self.on_structure_change
        if callback is not None:
            callback()

    # ------------------------------------------------------------------ #
    # navigation helpers                                                  #
    # ------------------------------------------------------------------ #

    def _read_unlocked(self, raw_ptr: int) -> Generator[Any, Any, Node]:
        """Fetch the page at *raw_ptr*; if its lock bit is set, wait it out
        (the paper's ``readLockOrRestart`` / ``remote_awaitNodeUnlocked``).

        Like every read here, the node is the decode memo's master, one
        object for the whole cluster (:meth:`NodeAccessor.read_node`): a
        writer clones it once its lock CAS has succeeded, never before."""
        node = yield from self.acc.read_node(raw_ptr)
        if node.version & 1:
            node = yield from self._await_unlocked(raw_ptr, node)
        return node

    def _await_unlocked(
        self, raw_ptr: int, node: Node
    ) -> Generator[Any, Any, Node]:
        """Spin on the page at *raw_ptr*, last read as the locked *node*,
        until an unlocked image arrives.

        If the accessor grants a lock lease, a locked word that stays
        *unchanged* for the whole lease is presumed abandoned (its holder
        crashed between lock and unlock) and is CAS-stolen, so one dead
        client cannot wedge the subtree. Any change to the word — a page
        write inside the critical section, an unlock, someone else's
        steal — re-arms the timer.
        """
        observed_word = node.version
        observed_since = self.acc.now()
        while True:
            yield from self.acc.spin_pause()
            node = yield from self.acc.read_node(raw_ptr)
            if not node.is_locked:
                return node
            if node.version != observed_word:
                observed_word = node.version
                observed_since = self.acc.now()
                continue
            lease = self.acc.lock_lease_s()
            if lease is not None and self.acc.now() - observed_since >= lease:
                yield from self.acc.try_steal_lock(raw_ptr, observed_word)
                # Whether we won the steal or raced another client, start
                # observing afresh.
                observed_since = self.acc.now()

    def _descend_from(
        self, raw_ptr: int, node: Optional[Node], key: int, level: int
    ) -> Generator[Any, Any, Tuple[int, Node]]:
        """Walk down from *node* (at *raw_ptr*; the root, read here, when
        None) to the node at *level* covering *key*, moving right through
        siblings whenever the key escapes a node's range (concurrent
        splits).

        The one read site is ``_read_unlocked``'s body rather than a call of
        it — no frame of its own on the resume chain, and only an odd word
        enters the spin loop (-2.6 % host time, 9 of 10 pairs:
        docs/performance.md, "One decode per page version").

        Each page fetch of the walk becomes a child span of the active
        operation (kind ``descend``/``move_right``, named for the level the
        step *starts* from) so sampled traces show where traversal round
        trips went. With observability off, ``obs`` is None and every
        guard collapses to one attribute test."""
        obs = self.acc.obs
        step_kind = "descend"
        if node is None:
            raw_ptr = yield from self.root.get()
        while True:
            if node is not None:
                if not node.covers(key) and not is_null(node.right):
                    raw_ptr = node.right
                    step_kind = "move_right"
                elif node.level > level:
                    raw_ptr = node.find_child(key)
                    step_kind = "descend"
                else:
                    return raw_ptr, node
            if obs is not None:
                obs.enter_step(
                    step_kind, "root" if node is None else f"level_{node.level}"
                )
            node = yield from self.acc.read_node(raw_ptr)
            if node.version & 1:
                node = yield from self._await_unlocked(raw_ptr, node)
            if obs is not None:
                obs.exit_step()

    def _descend_to_level(
        self, key: int, level: int
    ) -> Generator[Any, Any, Tuple[int, Node]]:
        """Descend from the root; no frame of its own on the yield chain."""
        return self._descend_from(0, None, key, level)

    def _find_leaf(self, key: int) -> Generator[Any, Any, Tuple[int, Node]]:
        """``(raw_ptr, node)`` of the leaf covering *key* — the step every
        operation below starts from, and the one a design overrides when
        it reaches its leaves another way (the hybrid's traversal RPC,
        Section 5.2). Here: the root descent."""
        return self._descend_from(0, None, key, 0)

    # ------------------------------------------------------------------ #
    # reads                                                               #
    # ------------------------------------------------------------------ #

    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        """Point query: all live payloads stored under *key*.

        Non-unique keys are supported; an empty list means "not found".
        """
        _ptr, leaf = yield from self._find_leaf(key)
        return leaf.leaf_matches(key)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        """Range query: live ``(key, payload)`` pairs with ``low <= key < high``.

        Walks the leaf chain left to right; with head nodes enabled the walk
        prefetches upcoming leaves in parallel (Section 4.3), falling back
        to serial sibling reads for any leaf a stale head misses.

        A leaf visit is two bisects and one slice of the image's
        :attr:`Node.live` pairs, which the first scan to read that image
        builds and every later one — any client, any RPC worker of the
        cluster, through the decode memo — reuses.
        """
        if high <= low:
            return []
        raw_ptr, node = yield from self._find_leaf(low)
        results: List[Tuple[int, int]] = []
        prefetched: Dict[int, Node] = {}
        seen_heads = set()
        while True:
            live_keys, live_pairs = node.live or node.build_live()
            start = bisect_left(live_keys, low)
            end = bisect_left(live_keys, high, start)
            if end > start:
                results += live_pairs[start:end]
            # A key at or past *high* inside the node completes the scan. A
            # tombstoned one is not among the live keys, but it lies below
            # the high key, so the high-key test ends the scan instead.
            if end < len(live_keys) or node.high_key >= high or is_null(node.right):
                return results
            if (
                self.use_head_nodes
                and not is_null(node.head)
                and node.head not in seen_heads
            ):
                seen_heads.add(node.head)
                yield from self._prefetch_group(node, high, prefetched)
            raw_ptr = node.right
            cached = prefetched.pop(raw_ptr, None)
            if cached is not None and not cached.is_locked:
                node = cached
            else:
                # _read_unlocked's body, as in _descend_from: no frame of
                # its own on the resume chain.
                node = yield from self.acc.read_node(raw_ptr)
                if node.version & 1:
                    node = yield from self._await_unlocked(raw_ptr, node)

    def _prefetch_group(
        self, node: Node, high: int, prefetched: Dict[int, Node]
    ) -> Generator[Any, Any, None]:
        """Read *node*'s head node and fetch the upcoming leaves in parallel.

        A head's keys are its leaves' first keys in chain order, so sorted:
        the leaves ahead of the scan and inside the range are one bisected
        span of them."""
        head = yield from self.acc.read_node(node.head)
        if not head.is_head:
            return  # the page was recycled; ignore the stale pointer
        keys = head.keys
        start = bisect_left(keys, node.high_key)
        room = self.prefetch_window
        wanted = []
        for leaf_ptr in head.values[start : bisect_left(keys, high, start)]:
            if leaf_ptr in prefetched or not leaf_ptr or leaf_ptr & NULL_RAW:
                continue  # already on its way, or a NULL pointer
            wanted.append(leaf_ptr)
            room -= 1
            if room <= 0:
                break
        if not wanted:
            return
        nodes = yield from self.acc.read_nodes(wanted)
        for leaf_ptr, leaf in zip(wanted, nodes):
            if leaf.is_leaf:
                prefetched[leaf_ptr] = leaf

    # ------------------------------------------------------------------ #
    # writes                                                              #
    # ------------------------------------------------------------------ #

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        """Insert ``(key, value)``; duplicates are allowed (secondary index)."""
        if key >= MAX_KEY:
            raise IndexError_(f"key {key} is reserved (MAX_KEY sentinel)")
        if is_tombstoned(value):
            raise IndexError_("payloads must leave bit 63 clear (tombstone bit)")
        while True:
            raw_ptr, node = yield from self._find_leaf(key)
            locked = yield from self.acc.try_lock(raw_ptr, node.version)
            if not locked:
                yield from self.acc.spin_pause()
                continue
            # The CAS succeeded on the version we read, so the node we read
            # is the current page content and its range information is
            # trustworthy.
            if not node.covers(key) and not is_null(node.right):
                yield from self.acc.unlock_nochange(raw_ptr)
                continue
            # What we read is the memo's master: change a private copy.
            node = node.clone()
            if node.count < self.max_entries:
                node.insert_entry(key, value)
                yield from self.acc.unlock_write(raw_ptr, node)
            else:
                yield from self._split_and_insert(raw_ptr, node, key, value)
            return

    @staticmethod
    def _split_for_insert(node: Node, key: int) -> Tuple[Node, int]:
        """Split *node* so that *key* has somewhere to go.

        Normally delegates to :meth:`Node.split`. A full node whose keys are
        all equal cannot be split in the middle (the fence would strand the
        left half's duplicates), so it is split at the run boundary instead:
        the new sibling starts empty on whichever side *key* belongs to.
        Inserting yet another duplicate of that same key raises — a single
        key's duplicate run is limited to one page.
        """
        if node.keys[0] != node.keys[-1]:
            return node.split()
        run_key = node.keys[0]
        if key == run_key:
            raise IndexError_(
                f"duplicate run for key {run_key} exceeds one page "
                f"({node.count} entries); use a larger page size"
            )
        if key > run_key:
            # Empty sibling on the right takes over [run_key+1, old high).
            split_key = run_key + 1
            sibling = Node(
                node.node_type,
                node.level,
                right=node.right,
                head=node.head,
                high_key=node.high_key,
            )
        else:
            # The whole run moves right; this node empties out for [low, run_key).
            split_key = run_key
            sibling = Node(
                node.node_type,
                node.level,
                right=node.right,
                head=node.head,
                high_key=node.high_key,
                keys=node.keys[:],
                values=node.values[:],
            )
            node.keys = []
            node.values = []
        node.high_key = split_key
        return sibling, split_key

    def _split_and_insert(
        self, raw_ptr: int, node: Node, key: int, value: int
    ) -> Generator[Any, Any, None]:
        """Split the locked *node*, placing ``(key, value)`` in the proper
        half, then ascend to install the separator."""
        sibling, split_key = self._split_for_insert(node, key)
        new_ptr = yield from self.acc.alloc(node.level)
        node.right = new_ptr
        if key < split_key:
            node.insert_entry(key, value)
        else:
            sibling.insert_entry(key, value)
        # Install the right half before unlocking the left: readers that
        # race with us find the new node via the sibling pointer.
        yield from self.acc.write_node(new_ptr, sibling)
        yield from self.acc.unlock_write(raw_ptr, node)
        yield from self._install_separator(
            node.level + 1, split_key, new_ptr, raw_ptr
        )

    def _install_separator(
        self, level: int, sep_key: int, new_child: int, split_child: int
    ) -> Generator[Any, Any, None]:
        """Insert ``(sep_key, new_child)`` into the node at *level* covering
        the separator, growing the tree with a new root if necessary.

        Retries from the root on any conflict; on an inner split the
        installation continues one level further up.
        """
        while True:
            root_ptr = yield from self.root.get()
            root_node = yield from self._read_unlocked(root_ptr)
            if root_node.level < level:
                root_ptr = yield from self.root.refresh()
                root_node = yield from self._read_unlocked(root_ptr)
            if root_node.level < level:
                grew = yield from self._grow_root(
                    root_ptr, level, sep_key, new_child, split_child
                )
                if grew:
                    return
                continue
            raw_ptr, node = yield from self._descend_from(
                root_ptr, root_node, sep_key, level
            )
            locked = yield from self.acc.try_lock(raw_ptr, node.version)
            if not locked:
                yield from self.acc.spin_pause()
                continue
            if not node.covers(sep_key) and not is_null(node.right):
                yield from self.acc.unlock_nochange(raw_ptr)
                continue
            node = node.clone()
            if node.count < self.max_entries:
                node.insert_entry(sep_key, new_child)
                yield from self.acc.unlock_write(raw_ptr, node)
                self._structure_changed()
                return
            sibling, up_key = self._split_for_insert(node, sep_key)
            new_ptr = yield from self.acc.alloc(node.level)
            node.right = new_ptr
            if sep_key < up_key:
                node.insert_entry(sep_key, new_child)
            else:
                sibling.insert_entry(sep_key, new_child)
            yield from self.acc.write_node(new_ptr, sibling)
            yield from self.acc.unlock_write(raw_ptr, node)
            self._structure_changed()
            level, sep_key = level + 1, up_key
            new_child, split_child = new_ptr, raw_ptr

    def _grow_root(
        self, old_root: int, level: int, sep_key: int, new_child: int, split_child: int
    ) -> Generator[Any, Any, bool]:
        """Install a new root above a split old root (Section 2's 'one
        additional RDMA WRITE for installing a new root node')."""
        new_root = Node(
            NodeType.INNER,
            level,
            keys=[0, sep_key],
            values=[split_child, new_child],
            high_key=MAX_KEY,
        )
        new_root_ptr = yield from self.acc.alloc(level)
        yield from self.acc.write_node(new_root_ptr, new_root)
        swapped = yield from self.root.compare_and_swap(old_root, new_root_ptr)
        # On a lost race the freshly written page is simply abandoned; the
        # epoch garbage collector reclaims unreferenced pages eventually.
        if swapped:
            self._structure_changed()
        return swapped

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        """Replace the first live payload under *key* with *value*.

        In-place page write under the node lock — no structural change can
        result, so no split/ascend handling is needed. Returns True if an
        entry existed.
        """
        return self._rewrite_first_live(key, value)

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        """Mark the first live entry for *key* deleted (Sections 3.2/4.2).

        Returns True if an entry was tombstoned. Physical removal is the
        epoch garbage collector's job (:mod:`repro.index.gc`).
        """
        return self._rewrite_first_live(key, None)

    def _rewrite_first_live(
        self, key: int, value: Optional[int]
    ) -> Generator[Any, Any, bool]:
        """Under the leaf lock, give the first live entry for *key* the
        payload *value* — or, for None, its tombstone bit. False if the
        leaf holds no live entry for *key*."""
        if value is not None and is_tombstoned(value):
            raise IndexError_("payloads must leave bit 63 clear (tombstone bit)")
        while True:
            raw_ptr, node = yield from self._find_leaf(key)
            target = self._first_live_index(node, key)
            if target is None:
                return False
            locked = yield from self.acc.try_lock(raw_ptr, node.version)
            if not locked:
                yield from self.acc.spin_pause()
                continue
            # The CAS succeeded on the version we read: *target* still
            # names the entry in the current page content.
            node = node.clone()
            node.values[target] = (
                node.values[target] | TOMBSTONE_BIT if value is None else value
            )
            yield from self.acc.unlock_write(raw_ptr, node)
            return True

    @staticmethod
    def _first_live_index(node: Node, key: int) -> Optional[int]:
        index = bisect_left(node.keys, key)
        while index < len(node.keys) and node.keys[index] == key:
            if not is_tombstoned(node.values[index]):
                return index
            index += 1
        return None

    # ------------------------------------------------------------------ #
    # introspection (testing / validation)                                #
    # ------------------------------------------------------------------ #

    def height(self) -> Generator[Any, Any, int]:
        """Levels from root to leaves inclusive (a lone leaf has height 1)."""
        raw_ptr = yield from self.root.refresh()
        node = yield from self._read_unlocked(raw_ptr)
        return node.level + 1

    def validate(self, min_level: int = 0) -> Generator[Any, Any, Dict[str, int]]:
        """Check structural invariants on a quiescent tree.

        Verifies, level by level: sorted keys, keys within fences, sibling
        chains ordered with the rightmost high key at MAX_KEY, and parent
        separators matching child fences. Raises :class:`IndexError_` on
        violation; returns summary statistics otherwise.

        ``min_level`` stops the walk early — the hybrid design's inner
        trees validate with ``min_level=1`` because their level-0 children
        live on other servers.
        """
        root_ptr = yield from self.root.refresh()
        root = yield from self._read_unlocked(root_ptr)
        stats = {"height": root.level + 1, "nodes": 0, "leaves": 0, "entries": 0,
                 "tombstones": 0}
        leftmost = root_ptr
        for level in range(root.level, min_level - 1, -1):
            node = yield from self._read_unlocked(leftmost)
            if node.level != level:
                raise IndexError_(
                    f"expected level {level} at {leftmost:#x}, found {node.level}"
                )
            next_leftmost = node.values[0] if node.is_inner and node.count else None
            previous_high = 0
            while True:
                stats["nodes"] += 1
                if node.keys != sorted(node.keys):
                    raise IndexError_(f"unsorted keys in node at level {level}")
                if node.keys and node.keys[0] < previous_high:
                    raise IndexError_(
                        f"key below low fence at level {level}: "
                        f"{node.keys[0]} < {previous_high}"
                    )
                if any(k >= node.high_key for k in node.keys):
                    raise IndexError_(f"key >= high fence at level {level}")
                if node.is_leaf:
                    stats["leaves"] += 1
                    stats["entries"] += sum(
                        0 if is_tombstoned(v) else 1 for v in node.values
                    )
                    stats["tombstones"] += sum(
                        1 if is_tombstoned(v) else 0 for v in node.values
                    )
                previous_high = node.high_key
                if is_null(node.right):
                    break
                node = yield from self._read_unlocked(node.right)
            if previous_high != MAX_KEY:
                raise IndexError_(
                    f"rightmost node at level {level} has high key "
                    f"{previous_high}, expected MAX_KEY"
                )
            if level > 0:
                if next_leftmost is None:
                    raise IndexError_(f"inner node at level {level} has no children")
                leftmost = next_leftmost
        return stats
