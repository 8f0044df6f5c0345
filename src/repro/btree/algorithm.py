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

HEAD = NodeType.HEAD
LEAF = NodeType.LEAF


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
        self,
        raw_ptr: int,
        node: Optional[Node],
        key: int,
        level: int,
        reply: Optional[Callable[[Node, int], Any]] = None,
    ) -> Generator[Any, Any, Any]:
        """Walk down from *node* (at *raw_ptr*; the root, read here, when
        None) to the node at *level* covering *key*, moving right through
        siblings whenever the key escapes a node's range (concurrent
        splits). Returns ``(raw_ptr, node)`` for the node it stops at, or
        ``reply(node, key)`` when *reply* is given: a caller that only
        reads the answer off that node (a point lookup, a server's
        handler) hands over how, and returns this generator instead of
        wrapping it in a frame of its own that every resume re-enters.

        The one read site is ``_read_unlocked``'s body rather than a call of
        it — no frame of its own on the resume chain, and only an odd word
        enters the spin loop (-2.6 % host time, 9 of 10 pairs:
        docs/performance.md, "One decode per page version").

        Each page fetch of the walk becomes a child span of the active
        operation (kind ``descend``/``move_right``, named for the level the
        step *starts* from) so sampled traces show where traversal round
        trips went. A step ends at the instant the next begins, so the hub
        is told once per level — enter, then hand-offs — and once at the
        end. With observability off, ``obs`` is None and every guard
        collapses to one attribute test per level."""
        obs = self.acc.obs
        stepping = None  # the hub, once a step of this walk is open
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
                    if stepping is not None:
                        stepping.exit_step()
                    if reply is None:
                        return raw_ptr, node
                    return reply(node, key)
            if obs is not None:
                name = "root" if node is None else f"level_{node.level}"
                if stepping is None:
                    obs.enter_step(step_kind, name)
                    stepping = obs
                else:
                    stepping.next_step(step_kind, name)
            node = yield from self.acc.read_node(raw_ptr)
            if node.version & 1:
                node = yield from self._await_unlocked(raw_ptr, node)

    def _descend_to_level(
        self, key: int, level: int
    ) -> Generator[Any, Any, Tuple[int, Node]]:
        """Descend from the root; no frame of its own on the yield chain."""
        return self._descend_from(0, None, key, level)

    def _find_leaf(
        self, key: int, reply: Optional[Callable[[Node, int], Any]] = None
    ) -> Generator[Any, Any, Any]:
        """``(raw_ptr, node)`` of the leaf covering *key* — or, given
        *reply*, ``reply(node, key)`` — the step every operation below
        starts from, and the one a design overrides when it reaches its
        leaves another way (the hybrid's traversal RPC, Section 5.2).
        Here: the root descent."""
        return self._descend_from(0, None, key, 0, reply)

    # ------------------------------------------------------------------ #
    # reads                                                               #
    # ------------------------------------------------------------------ #

    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        """Point query: all live payloads stored under *key*.

        Non-unique keys are supported; an empty list means "not found".
        A plain method: the descent itself answers with the leaf's
        matches, so no frame of this method sits on the resume chain of
        the lookup's reads.
        """
        return self._find_leaf(key, Node.leaf_matches)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        """Range query: live ``(key, payload)`` pairs with ``low <= key < high``.

        Walks the leaf chain left to right; with head nodes enabled the walk
        prefetches upcoming leaves in parallel (Section 4.3), falling back
        to serial sibling reads for any leaf a stale head misses.

        A leaf visit takes the image's :attr:`Node.live` pairs, which the
        first scan to read that image builds and every later one — any
        client, any RPC worker of the cluster, through the decode memo —
        reuses: whole when its first and last live keys lie in the range,
        else (the scan's first and last leaves) as a slice between two
        bisects. The prefetch is inline, not a frame of its own: the first
        leaf of a new head reads the head, bisects the window of its leaves
        ahead of the scan and inside the range (a head's keys are its
        leaves' first keys in chain order, so sorted) and hands it to one
        :meth:`NodeAccessor.read_nodes`.
        Pointers, lock bits and page types are tested as words
        (``not ptr or ptr & NULL_RAW``, ``version & 1``, ``node_type``).
        """
        if high <= low:
            return []
        raw_ptr, node = yield from self._find_leaf(low)
        acc = self.acc
        use_head_nodes = self.use_head_nodes
        results: List[Tuple[int, int]] = []
        prefetched: Dict[int, Node] = {}
        seen_heads = set()
        while True:
            live_keys, live_pairs = node.live or node.build_live()
            if live_keys and live_keys[0] >= low and live_keys[-1] < high:
                # Inside the range: the whole leaf, with no bisect.
                results += live_pairs
            else:
                start = bisect_left(live_keys, low)
                end = bisect_left(live_keys, high, start)
                if end > start:
                    results += live_pairs[start:end]
                # A key at or past *high* inside the node completes the
                # scan. A tombstoned one is not among the live keys, but it
                # lies below the high key, so the high-key test ends the
                # scan instead.
                if end < len(live_keys):
                    return results
            raw_ptr = node.right
            if node.high_key >= high or not raw_ptr or raw_ptr & NULL_RAW:
                return results
            head_ptr = node.head
            if (
                use_head_nodes
                and head_ptr
                and not head_ptr & NULL_RAW
                and head_ptr not in seen_heads
            ):
                seen_heads.add(head_ptr)
                head = yield from acc.read_node(head_ptr)
                # A recycled page is not a head: ignore the stale pointer.
                if head.node_type == HEAD:
                    keys = head.keys
                    first = bisect_left(keys, node.high_key)
                    # Not NULL and not already on its way, up to the window.
                    wanted = [
                        leaf_ptr
                        for leaf_ptr in head.values[first : bisect_left(keys, high, first)]
                        if leaf_ptr and not leaf_ptr & NULL_RAW and leaf_ptr not in prefetched
                    ][: self.prefetch_window]
                    if wanted:
                        leaves = yield from acc.read_nodes(wanted)
                        for leaf_ptr, leaf in zip(wanted, leaves):
                            if leaf.node_type == LEAF:
                                prefetched[leaf_ptr] = leaf
            cached = prefetched.pop(raw_ptr, None)
            if cached is not None and not cached.version & 1:
                node = cached
            else:
                # _read_unlocked's body, as in _descend_from: no frame of
                # its own on the resume chain.
                node = yield from acc.read_node(raw_ptr)
                if node.version & 1:
                    node = yield from self._await_unlocked(raw_ptr, node)

    # ------------------------------------------------------------------ #
    # writes                                                              #
    # ------------------------------------------------------------------ #

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        """Insert ``(key, value)``; duplicates are allowed (secondary index)."""
        if key >= MAX_KEY:
            raise IndexError_(f"key {key} is reserved (MAX_KEY sentinel)")
        # The tombstone bit, the high key and the entry count are tested
        # inline, not through is_tombstoned, Node.covers and Node.count:
        # three calls fewer per insert.
        if value & TOMBSTONE_BIT:
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
            if key >= node.high_key and not is_null(node.right):
                yield from self.acc.unlock_nochange(raw_ptr)
                continue
            # What we read is the memo's master: change a private copy.
            node = node.clone()
            if len(node.keys) < self.max_entries:
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
    # introspection (testing)                                             #
    # ------------------------------------------------------------------ #

    def height(self) -> Generator[Any, Any, int]:
        """Levels from root to leaves inclusive (a lone leaf has height 1)."""
        raw_ptr = yield from self.root.refresh()
        node = yield from self._read_unlocked(raw_ptr)
        return node.level + 1
