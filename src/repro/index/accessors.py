"""Concrete node accessors and root references.

Two accessor implementations mirror the paper's two access paths:

* :class:`LocalAccessor` — runs *inside* a memory server (coarse-grained
  RPC handlers, hybrid inner-level traversals). Node operations touch the
  server's own region directly; their cost is CPU time charged to the RPC
  worker executing them (QPI-adjusted), which is how the two-sided designs
  become CPU-bound under load.

* :class:`RemoteAccessor` — runs on a compute server and reaches nodes with
  one-sided verbs over queue pairs (fine-grained design, hybrid leaf level).
  Page allocation is a one-sided FETCH_AND_ADD on the target server's
  allocation word, round-robin across servers — no remote CPU involved.

Root references follow the same split: :class:`LocalRootRef` reads/CASes a
root word in the server's own region; :class:`RemoteRootRef` caches the
root pointer on the compute server (stale roots are harmless in B-link
trees) and refreshes/swings it with one-sided READ/CAS.

Lock leases (crash recovery): a remote spinlock held by a crashed client
would wedge its subtree forever, so :class:`RemoteAccessor` extends the
paper's lock word. While locked, bits 48-63 carry the locker's *owner
tag* (an epoch identifying the locking session) next to the version bits;
the tag vanishes as soon as the critical section writes the page back, and
both unlock variants restore a clean, even, incremented version — so the
extension is invisible to the crash-free protocol. Recovery is time-based,
FaRM-style: a spinner that has watched the *same* locked word for
``RetryConfig.lock_lease_s`` (far longer than any live critical section,
including its worst-case retry budget) CAS-steals the word back to
unlocked. The B-link structure makes every crash instant safe: a holder
dies either before writing (steal exposes the old page), after writing its
split sibling (reachable via the sibling pointer), or after the page write
(steal exposes the new page). Leases are active only while a
:class:`~repro.rdma.faults.FaultInjector` is attached to the fabric.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Generator, List, Optional

from repro.btree.accessor import NodeAccessor, RootRef
from repro.btree.node import Node
from repro.btree.pointers import NULL_RAW, encode_pointer
from repro.errors import CatalogError, RemoteAccessError
from repro.nam.allocator import ALLOC_WORD_OFFSET
from repro.nam.catalog import RootLocation
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer
from repro.rdma.verbs import Verb

__all__ = ["LocalAccessor", "RemoteAccessor", "LocalRootRef", "RemoteRootRef"]

#: While a node is write-locked, bits 48-63 of its version word carry the
#: locker's owner tag; bits 0-47 keep the version counter and lock bit.
#: Unlock paths always restore a tag-free word, so unlocked words are plain
#: even versions exactly as in the paper.
_LOCK_TAG_SHIFT = 48
_LOCK_VERSION_MASK = (1 << _LOCK_TAG_SHIFT) - 1

#: Low 56 bits of a raw pointer (RemotePointer.from_raw's offset mask).
#: Every verb decodes its pointer inline, ``(raw >> 56) & 0x7F`` and
#: ``raw & _PTR_OFFSET_MASK`` after the NULL test, with no tuple.
_PTR_OFFSET_MASK = (1 << 56) - 1

READ = Verb.READ

#: Version-word peek without a slice allocation (unpack_from reads the
#: first 8 bytes of any buffer directly).
_PEEK_U64 = struct.Struct("<Q").unpack_from


def _emit_local(
    server: MemoryServer,
    kind: str,
    verb: str,
    logical_id: int,
    offset: int,
    length: int,
    epoch: int = 0,
) -> None:
    """Report a region effect of a server-resident accessor or root ref to
    the attached trace sanitizer (callers test ``server.sanitizer`` first,
    so an untraced run pays no call). The actor is the *physical* host
    whose worker does the work; the server field is the logical id whose
    bytes are touched (they differ on a promoted backup)."""
    server.sanitizer.emit(
        f"s{server.server_id}",
        kind,
        verb,
        logical_id,
        offset,
        length,
        server.sim.now,
        lock_epoch=epoch,
    )


class _SharedDecode:
    """The one decode both accessors do, through the decode memo of the
    server they run on (``Cluster.decode_memo`` says why a hit is sound).

    The memo has two writers. A read that misses decodes the image and
    stores it as the master of its version. An ``unlock_write`` whose FAA
    returns the very word it wrote proves the page now holds exactly the
    writer's node, one version up, and stores that node as the master of
    the new version: nobody decodes what a writer wrote.

    A master also carries its live pairs (:attr:`Node.live`) once a range
    scan has read it: one build per page version, shared like the decode,
    and gone with the master when a new version replaces it."""

    _decode_cache: Dict[int, Node]

    def _decode_shared(self, raw_ptr: int, data, cache: Optional[dict] = None) -> Node:
        """Decode *data*, reusing the memoized master if the image's
        version word is unchanged. The returned node is shared by every
        client thread and RPC worker of the cluster: callers must treat it
        as immutable (a writer clones it after its lock CAS). *cache*
        stands in for the memo where an image must stay out of it (a
        crashed host's reads)."""
        version = _PEEK_U64(data)[0]
        if cache is None:
            cache = self._decode_cache
        master = cache.get(raw_ptr)
        if master is not None and master.version == version:
            return master
        master = Node.from_bytes(data)
        if not version & 1:
            cache[raw_ptr] = master
        return master


class LocalAccessor(_SharedDecode, NodeAccessor):
    """Node access from within a memory server's RPC worker.

    Normally the accessed region is the hosting server's own and the
    logical id it answers for is the server's id. After a failover the
    promoted host serves an *adopted* logical server: the promotion hooks
    rebuild local accessors with explicit ``region`` / ``logical_id`` /
    ``allocator`` overrides pointing at the adopted replica copy, while
    CPU time keeps being charged to the physical host doing the work.
    """

    def __init__(
        self,
        server: MemoryServer,
        region=None,
        logical_id: Optional[int] = None,
        allocator=None,
    ) -> None:
        self.server = server
        self.region = region if region is not None else server.region
        self.logical_id = logical_id if logical_id is not None else server.server_id
        self.allocator = allocator if allocator is not None else server.allocator
        self.obs = server.obs
        self._decode_cache = server.decode_memo
        self.page_size = server.config.tree.page_size
        self._node_cost = server.config.cpu.per_node_cost_s
        self._atomic_cost = server.config.cpu.per_node_cost_s / 4
        self._spin_slice = server.config.cpu.spin_wait_slice_s

    def _offset(self, raw_ptr: int) -> int:
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        server_id = (raw_ptr >> 56) & 0x7F
        if server_id != self.logical_id:
            raise RemoteAccessError(
                f"local accessor for logical server {self.logical_id} asked to "
                f"touch a node on server {server_id}"
            )
        return raw_ptr & _PTR_OFFSET_MASK

    def read_node(
        self, raw_ptr: int, _ignored: bool = False
    ) -> Generator[Any, Any, Node]:
        offset = self._offset(raw_ptr)
        yield self.server.cpu(self._node_cost)
        # Zero-copy: decode straight out of the region through a read-only
        # view, consumed before the next simulation yield (holding it longer
        # would block region growth — see MemoryRegion.read_view).
        view = self.region.read_view(offset, self.page_size)
        if self.server.sanitizer is not None:
            _emit_local(self.server, "read", "LOCAL_READ", self.logical_id, offset, self.page_size)
        # A destructive crash wipes the host's regions under its workers
        # (MemoryServer._worker_loop): one parked in the yield above reads
        # zeros, version word 0 like every bulk-loaded page. So a down
        # host's reads neither enter the cluster's memo nor come from it.
        injector = self.server.injector
        down = injector is not None and injector.server_down(self.server.server_id)
        try:
            master = self._decode_shared(raw_ptr, view, {} if down else None)
        finally:
            view.release()
        return master

    def write_node(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        offset = self._offset(raw_ptr)
        yield self.server.cpu(self._node_cost)
        self.region.write(offset, node.to_bytes(self.page_size))
        if self.server.sanitizer is not None:
            _emit_local(
                self.server, "write", "LOCAL_WRITE", self.logical_id, offset, self.page_size
            )

    def try_lock(self, raw_ptr: int, version: int) -> Generator[Any, Any, bool]:
        offset = self._offset(raw_ptr)
        yield self.server.cpu(self._atomic_cost)
        swapped, old = self.region.compare_and_swap(
            offset, version, version | 1
        )
        if self.server.sanitizer is not None:
            _emit_local(self.server, "atomic", "LOCAL_CAS", self.logical_id, offset, 8, old)
        obs = self.obs
        if obs is not None:
            if swapped:
                obs.lock_acquired()
            else:
                obs.lock_contended()
        return swapped

    def unlock_write(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        offset = self._offset(raw_ptr)
        node.version |= 1
        yield self.server.cpu(self._node_cost)
        self.region.write(offset, node.to_bytes(self.page_size))
        if self.server.sanitizer is not None:
            _emit_local(
                self.server, "write", "LOCAL_WRITE", self.logical_id, offset, self.page_size
            )
        old = self.region.fetch_and_add(offset, 1)
        if self.server.sanitizer is not None:
            _emit_local(self.server, "atomic", "LOCAL_FAA", self.logical_id, offset, 8, old)
        # The page holds *node* at ``old + 1``: publish it as that
        # version's master, unless this host is down (``Cluster.decode_memo``
        # says why a wiped region's write must stay out).
        injector = self.server.injector
        if old == node.version and (
            injector is None or not injector.server_down(self.server.server_id)
        ):
            node.version = old + 1
            self._decode_cache[raw_ptr] = node

    def unlock_nochange(self, raw_ptr: int) -> Generator[Any, Any, None]:
        offset = self._offset(raw_ptr)
        yield self.server.cpu(self._atomic_cost)
        old = self.region.fetch_and_add(offset, 1)
        if self.server.sanitizer is not None:
            _emit_local(self.server, "atomic", "LOCAL_FAA", self.logical_id, offset, 8, old)

    def alloc(self, level: int) -> Generator[Any, Any, int]:
        yield self.server.cpu(self._atomic_cost)
        offset = self.allocator.allocate()
        return encode_pointer(self.logical_id, offset)

    def spin_pause(self) -> Generator[Any, Any, None]:
        # The worker burns its core while spinning — deliberately.
        obs = self.obs
        if obs is None:
            yield self.server.cpu(self._spin_slice)
            return
        obs.lock_spin_round()
        started = self.server.sim.now
        yield self.server.cpu(self._spin_slice)
        obs.stamp("lock_wait", started, self.server.sim.now)

    def now(self) -> float:
        return self.server.sim.now


class RemoteAccessor(_SharedDecode, NodeAccessor):
    """Node access from a compute server through one-sided verbs."""

    def __init__(
        self,
        compute_server: ComputeServer,
        config,
        alloc_server_id: Optional[int] = None,
    ) -> None:
        self.compute_server = compute_server
        self.config = config
        self.obs = compute_server.fabric.obs
        self.page_size = config.tree.page_size
        self._search_cost = config.cpu.client_per_node_cost_s
        self._spin_slice = config.cpu.spin_wait_slice_s
        # Doorbell batching for multi-verb operations (prefetch fan-out,
        # write+FAA unlocks).
        self._batching = config.network.doorbell_batching
        self._max_wqes = config.network.max_batch_wqes
        # Stagger allocation round-robin across compute servers so they do
        # not all bump the same server's allocator in lockstep. When
        # ``alloc_server_id`` is given, all pages go to that server instead
        # (used for co-located coarse-grained trees, whose pages must stay
        # on the partition owner).
        self._alloc_counter = compute_server.server_id
        self._alloc_pinned = alloc_server_id
        # Owner tag stamped into locked words (see module docstring). Tag 0
        # is reserved for taggless lockers (local accessors), so shift ids
        # by one. The tag is always applied — it is behaviorally invisible
        # without faults — which keeps the happy path bit-for-bit identical
        # whether or not an injector is attached.
        self._owner_tag_word = ((compute_server.server_id + 1) & 0xFFFF) << _LOCK_TAG_SHIFT
        #: Lock steals performed by this accessor (lease recovery).
        self.lock_steals = 0
        self._decode_cache = compute_server.decode_memo

    def read_node(
        self, raw_ptr: int, _ignored: bool = False
    ) -> Generator[Any, Any, Node]:
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        # Zero-copy fetch: the view aliases the live region, so it is
        # decoded immediately — before the search-cost yield, during
        # which a concurrent writer could change the page — and
        # dropped. The decode input is exactly the bytes a copying
        # READ would have returned (and under fault injection it is
        # that copy, unless the queue pair is co-located).
        data = yield from self.compute_server.qp((raw_ptr >> 56) & 0x7F).read_view(
            raw_ptr & _PTR_OFFSET_MASK, self.page_size
        )
        master = self._decode_shared(raw_ptr, data)
        del data
        yield self._search_cost
        return master

    def read_nodes(self, raw_ptrs) -> Generator[Any, Any, List[Node]]:
        """Fetch several nodes at once (head-node prefetch fan-out).

        With doorbell batching the pointers are grouped by home server and
        each group is posted as chains of up to ``max_batch_wqes`` READs —
        one doorbell and one request/response message pair per chain,
        instead of one per node. Groups on different servers still overlap
        in time. Without batching each node is its own parallel READ (the
        seed behavior). Results come back in ``raw_ptrs`` order either way.
        """
        sim = self.compute_server.sim
        raw_ptrs = list(raw_ptrs)
        if not self._batching or len(raw_ptrs) < 2:
            pending = [sim.process(self.read_node(raw)) for raw in raw_ptrs]
            return (yield sim.all_of(pending))
        # Slots by home server, the pointer decoded inline as in read_node.
        by_server: Dict[int, List[int]] = {}
        for slot, raw in enumerate(raw_ptrs):
            if raw == 0 or raw & NULL_RAW:
                raise RemoteAccessError("cannot decode a NULL remote pointer")
            server_id = (raw >> 56) & 0x7F
            slots = by_server.get(server_id)
            if slots is None:
                by_server[server_id] = [slot]
            else:
                slots.append(slot)
        nodes: List[Any] = [None] * len(raw_ptrs)
        yield sim.all_of(
            [
                sim.process(self._read_group(server_id, slots, raw_ptrs, nodes))
                for server_id, slots in by_server.items()
            ]
        )
        return nodes

    def _read_group(
        self, server_id: int, slots: List[int], raw_ptrs: List[int], nodes: List[Any]
    ) -> Generator[Any, Any, None]:
        """One server's share of :meth:`read_nodes`: its *slots* of
        *raw_ptrs*, posted as READ chains of up to ``max_batch_wqes`` —
        :class:`~repro.rdma.qp.VerbBatch`'s chains, handed to the queue
        pair's executor without staging one — decoded into *nodes*."""
        page_size = self.page_size
        max_wqes = self._max_wqes
        for start in range(0, len(slots), max_wqes):
            chunk = slots[start : start + max_wqes]
            count = len(chunk)
            wqes = [
                (READ, page_size, raw_ptrs[slot] & _PTR_OFFSET_MASK, False)
                for slot in chunk
            ]
            pages = yield from self.compute_server.qp(server_id)._post(
                wqes, count, True, True
            )
            yield self._search_cost * count
            for slot, data in zip(chunk, pages):
                nodes[slot] = self._decode_shared(raw_ptrs[slot], data)

    def read_version(self, raw_ptr: int) -> Generator[Any, Any, int]:
        """One 8-byte READ of the node's version word (page offset 0).

        This is the 1-verb revalidation primitive of the client-side node
        cache (docs/caching.md): version words only ever grow, so a cached
        image whose version still matches the remote word is the current
        page content, while any mismatch — including an odd, locked word —
        means the image must be refetched.
        """
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        data = yield from self.compute_server.qp((raw_ptr >> 56) & 0x7F).read(
            raw_ptr & _PTR_OFFSET_MASK, 8
        )
        return int.from_bytes(data, "little")

    def write_node(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        # A fresh page at version 0 (split sibling, new root, GC head): the
        # memo learns it from its first reader, as from a bulk load.
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        return self.compute_server.qp((raw_ptr >> 56) & 0x7F).write(
            raw_ptr & _PTR_OFFSET_MASK, node.to_bytes(self.page_size)
        )

    def try_lock(self, raw_ptr: int, version: int) -> Generator[Any, Any, bool]:
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        swapped, _old = yield from self.compute_server.qp(
            (raw_ptr >> 56) & 0x7F
        ).compare_and_swap(
            raw_ptr & _PTR_OFFSET_MASK, version, version | 1 | self._owner_tag_word
        )
        obs = self.obs
        if obs is not None:
            if swapped:
                obs.lock_acquired()
            else:
                obs.lock_contended()
        return swapped

    def unlock_write(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        # The page image is written with a tag-free locked version, so the
        # subsequent FAA(+1) both clears our owner tag (the word was just
        # overwritten) and releases the lock.
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        server_id = (raw_ptr >> 56) & 0x7F
        offset = raw_ptr & _PTR_OFFSET_MASK
        node.version |= 1
        data = node.to_bytes(self.page_size)
        qp = self.compute_server.qp
        if self._batching:
            # One doorbell: the page WRITE and the releasing FAA travel in
            # a single chain. RC in-order execution applies the write
            # before the version bump, so the unlock is still a release
            # store — and the two round trips collapse into one.
            old = yield from qp(server_id).write_faa_chain(offset, data)
        else:
            # The queue pair is resolved per verb: a failover between the
            # two re-routes the FAA to the promoted copy the WRITE was
            # mirrored to.
            yield from qp(server_id).write(offset, data)
            old = yield from qp(server_id).fetch_and_add(offset, 1)
        # The FAA found the word our WRITE left (mirrors are synchronous, so
        # on a promoted copy too): the page holds *node* at ``old + 1``,
        # and it becomes that version's master.
        if old == node.version:
            node.version = old + 1
            self._decode_cache[raw_ptr] = node

    def unlock_nochange(self, raw_ptr: int) -> Generator[Any, Any, Any]:
        # Single FAA that increments the version *and* subtracts our owner
        # tag (mod 2**64), restoring a clean even word in one atomic.
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        return self.compute_server.qp((raw_ptr >> 56) & 0x7F).fetch_and_add(
            raw_ptr & _PTR_OFFSET_MASK, 1 - self._owner_tag_word
        )

    def alloc(self, level: int) -> Generator[Any, Any, int]:
        if self._alloc_pinned is not None:
            server_id = self._alloc_pinned
        else:
            server_id = self._alloc_counter % self.compute_server.num_memory_servers
            self._alloc_counter += 1
        offset = yield from self.compute_server.qp(server_id).fetch_and_add(
            ALLOC_WORD_OFFSET, self.page_size
        )
        return encode_pointer(server_id, offset)

    def spin_pause(self) -> Generator[Any, Any, None]:
        # Remote spinlock: back off, then the caller re-READs the node.
        obs = self.obs
        if obs is None:
            yield self._spin_slice
            return
        obs.lock_spin_round()
        sim = self.compute_server.sim
        started = sim.now
        yield self._spin_slice
        obs.stamp("lock_wait", started, sim.now)

    # -- lock-lease recovery ----------------------------------------------------

    def now(self) -> float:
        return self.compute_server.sim.now

    def lock_lease_s(self):
        injector = self.compute_server.fabric.injector
        if injector is None:
            return None
        return injector.lock_lease_s

    def try_steal_lock(
        self, raw_ptr: int, observed_word: int
    ) -> Generator[Any, Any, bool]:
        # The observed word has been locked and unchanged for a full lease:
        # presume its holder crashed. CAS it straight to an unlocked word
        # with the version advanced past the dead holder's locked version
        # (clear the owner tag and lock bit, then +2), so optimistic readers
        # that captured the pre-crash version correctly restart.
        if raw_ptr == 0 or raw_ptr & NULL_RAW:
            raise RemoteAccessError("cannot decode a NULL remote pointer")
        stolen_word = ((observed_word & _LOCK_VERSION_MASK) & ~1) + 2
        swapped, _old = yield from self.compute_server.qp(
            (raw_ptr >> 56) & 0x7F
        ).compare_and_swap(raw_ptr & _PTR_OFFSET_MASK, observed_word, stolen_word)
        if swapped:
            self.lock_steals += 1
            injector = self.compute_server.fabric.injector
            if injector is not None:
                injector.record_steal()
            if self.obs is not None:
                self.obs.lock_stolen()
        return swapped


class LocalRootRef(RootRef):
    """A root pointer word in the accessing server's own region.

    With an explicit ``region`` (a promoted host operating an adopted
    replica copy) the same-server check is skipped — the root word then
    lives in the adopted region rather than the host's own.
    """

    def __init__(
        self, server: MemoryServer, location: RootLocation, region=None
    ) -> None:
        if region is None and location.server_id != server.server_id:
            raise CatalogError(
                "local root reference must live on the accessing server"
            )
        self.server = server
        self.region = region if region is not None else server.region
        self.logical_id = location.server_id
        self.offset = location.offset

    def get(self) -> Generator[Any, Any, int]:
        raw = self.region.read_u64(self.offset)
        if self.server.sanitizer is not None:
            _emit_local(self.server, "read", "LOCAL_READ", self.logical_id, self.offset, 8)
        return raw
        yield  # pragma: no cover - unreachable; makes this a generator

    def refresh(self) -> Generator[Any, Any, int]:
        raw = self.region.read_u64(self.offset)
        if self.server.sanitizer is not None:
            _emit_local(self.server, "read", "LOCAL_READ", self.logical_id, self.offset, 8)
        return raw
        yield  # pragma: no cover - unreachable; makes this a generator

    def compare_and_swap(self, old: int, new: int) -> Generator[Any, Any, bool]:
        swapped, current = self.region.compare_and_swap(self.offset, old, new)
        if self.server.sanitizer is not None:
            _emit_local(
                self.server, "atomic", "LOCAL_CAS", self.logical_id, self.offset, 8, current
            )
        return swapped
        yield  # pragma: no cover - unreachable; makes this a generator


class RemoteRootRef(RootRef):
    """A cached root pointer maintained over one-sided verbs.

    The cached value may lag behind a concurrent root split; traversals
    from a stale root remain correct (move-right), and
    :meth:`refresh` re-reads the authoritative word when the algorithm
    detects the tree grew.
    """

    def __init__(self, compute_server: ComputeServer, location: RootLocation) -> None:
        self.compute_server = compute_server
        self.location = location
        self._cached: int = 0

    def get(self) -> Generator[Any, Any, int]:
        if self._cached:
            return self._cached
        return (yield from self.refresh())

    def refresh(self) -> Generator[Any, Any, int]:
        location = self.location
        data = yield from self.compute_server.qp(location.server_id).read(
            location.offset, 8
        )
        raw = int.from_bytes(data, "little")
        if raw == 0:
            raise CatalogError("root pointer word is uninitialized")
        self._cached = raw
        return raw

    def compare_and_swap(self, old: int, new: int) -> Generator[Any, Any, bool]:
        location = self.location
        swapped, current = yield from self.compute_server.qp(
            location.server_id
        ).compare_and_swap(location.offset, old, new)
        self._cached = new if swapped else current
        return swapped
