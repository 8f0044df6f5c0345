"""Coherent client-side caching of index nodes (Appendix A.4).

The appendix observes that compute servers can cache hot index nodes to
save remote round trips — trivially beneficial for read-only workloads,
hard in general because updates must invalidate cached nodes. This module
implements the real design axis the appendix only sketches: a per-client
:class:`RemoteCache` of *inner* pages with a configurable **cache depth**
(how many of the top tree levels are cached), kept coherent through three
complementary mechanisms rather than a blunt TTL:

* **Stale routing is safe** — for pure navigation, a stale inner node
  still routes a traversal to a pre-split child and the B-link move-right
  protocol recovers, at the cost of extra sibling hops. Leaves are never
  cached (a stale leaf would return wrong data).

* **Epoch-driven revalidation** — every inner-node SMO (separator
  install, inner split, root growth) bumps the index's *structure epoch*
  in the catalog (:meth:`repro.nam.catalog.Catalog.bump_structure_epoch`).
  A cached image filled under an older epoch is not trusted outright: the
  client re-reads the page's 8-byte version word with one READ
  (:meth:`RemoteAccessor.read_version`) and serves the image only if the
  word still matches — version words only grow, so a match proves the
  whole page is current. A mismatch drops the image and refetches.

* **Version-validated writes** — the write path CASes on the version it
  read, which self-validates; but a CAS that *fails* because the cached
  version was stale would burn a round trip per retry forever if the
  stale image survived. Lock attempts on cache-served versions are
  therefore preceded by the same 1-verb header READ, and any mismatch —
  on the pre-check or on the CAS itself — invalidates the entry so the
  retry refetches fresh bytes.

Wire-up: set :class:`repro.config.CacheConfig` ``depth > 0`` and every
fine-grained or hybrid session caches automatically, or build an explicit
cached session with :func:`cached_session` (the Appendix A.4 harness
API). Counters are exported through namscope as
``nam_cache_{hits,misses,revalidations,revalidation_misses,invalidations}_total``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, Iterable, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.node import Node
from repro.index.accessors import RemoteAccessor
from repro.nam.compute_server import ComputeServer

__all__ = [
    "RemoteCache",
    "CachingRemoteAccessor",
    "cached_session",
    "attach_cache",
]


class RemoteCache:
    """A per-client LRU of inner-page images keyed by raw pointer.

    Pure bookkeeping — it never touches the simulation. The accessor asks
    it three questions (lookup / cacheable / store) and reports outcomes
    back (confirm / reject / invalidate); every answer is O(1).

    One policy: ``depth`` — cache the top *depth* tree levels, relative to
    the highest level this client has observed (its root-level estimate,
    maintained by :meth:`observe`); always clipped above the leaves.
    Depth 0 disables caching entirely. Staleness is bounded by epoch and
    version revalidation, never by a clock.
    """

    def __init__(self, capacity: int = 4096, depth: int = 0) -> None:
        self.capacity = capacity
        self.depth = depth
        #: Highest node level this client has seen (root-level estimate).
        self.top_level = 0
        #: raw_ptr -> [version, epoch, master] where ``master`` is the
        #: decode memo's master of the page image it was filled from —
        #: served as-is, like every read; the bytes are never kept. The
        #: entry lives and dies with the image, so every coherence action
        #: (reject / invalidate / eviction) drops the node with it.
        self._entries: "OrderedDict[int, list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.revalidations = 0
        self.revalidation_failures = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def observe(self, level: int) -> None:
        """Track the highest level seen (depth is measured from the top)."""
        if level > self.top_level:
            self.top_level = level

    def cacheable(self, node: Node) -> bool:
        """Should *node* be stored? Inner, unlocked, and within policy."""
        if self.capacity <= 0 or self.depth <= 0:
            return False
        if not node.is_inner or node.is_locked or node.level < 1:
            return False
        return node.level > self.top_level - self.depth

    def lookup(
        self, raw_ptr: int, epoch: int
    ) -> Optional[Tuple[int, bool, Node]]:
        """``(version, fresh, master)`` for a cached page, or None.

        ``fresh`` is False when the index's structure epoch has moved past
        the epoch the image was filled (or last revalidated) under — the
        caller must then revalidate the version word before serving it.
        Does **not** bump hit/miss counters; the accessor does, once it
        knows the serve outcome.
        """
        entry = self._entries.get(raw_ptr)
        if entry is None:
            return None
        self._entries.move_to_end(raw_ptr)
        return entry[0], entry[1] >= epoch, entry[2]

    def store(self, raw_ptr: int, node: Node, epoch: int) -> None:
        # *node* is a master nobody mutates (writers clone after their
        # lock CAS), so the cache keeps it rather than a copy.
        self._entries[raw_ptr] = [node.version, epoch, node]
        self._entries.move_to_end(raw_ptr)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def confirm(self, raw_ptr: int, epoch: int) -> None:
        """A revalidation READ matched: the image is current up to *epoch*."""
        self.revalidations += 1
        entry = self._entries.get(raw_ptr)
        if entry is not None:
            entry[1] = epoch

    def reject(self, raw_ptr: int) -> None:
        """A revalidation READ mismatched: drop the stale image."""
        self.revalidations += 1
        self.revalidation_failures += 1
        self._entries.pop(raw_ptr, None)

    def invalidate(self, raw_ptr: int) -> bool:
        """Drop one page (writes, failed CASes); True if it was cached."""
        if self._entries.pop(raw_ptr, None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()


class CachingRemoteAccessor(RemoteAccessor):
    """One-sided access through a coherent :class:`RemoteCache`.

    The one constructor every cached session goes through. The structure
    epoch is read off *index*'s catalog descriptor — compile-time metadata,
    free to read at run time (see :mod:`repro.nam.catalog`) — so SMOs
    published by any writer (through
    :attr:`BLinkTree.on_structure_change`) are visible to every cached
    session immediately.
    """

    def __init__(
        self, index, compute_server: ComputeServer, depth: int, capacity: int
    ) -> None:
        super().__init__(compute_server, index.cluster.config)
        self.cache = RemoteCache(capacity=capacity, depth=depth)
        catalog = index.cluster.catalog
        name = index.name
        self._epoch = lambda: catalog.lookup(name).structure_epoch
        #: raw_ptr -> version of the image this client last served from
        #: cache (cleared on fresh reads/locks): marks the versions whose
        #: lock attempts must be revalidated before the CAS.
        self._served_versions: Dict[int, int] = {}

    # -- introspection (tests, experiment harnesses) -------------------------

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def _cache(self) -> "OrderedDict[int, list]":
        return self.cache._entries

    def invalidate(self, raw_ptr: int) -> None:
        self._served_versions.pop(raw_ptr, None)
        if self.cache.invalidate(raw_ptr) and self.obs is not None:
            self.obs.cache_invalidated.inc()

    # -- accessor overrides ---------------------------------------------------

    def read_node(
        self, raw_ptr: int, _ignored: bool = False
    ) -> Generator[Any, Any, Node]:
        obs = self.obs
        epoch = self._epoch()
        found = self.cache.lookup(raw_ptr, epoch)
        if found is not None:
            version, fresh, master = found
            if not fresh:
                # The structure epoch moved since this image was filled:
                # re-check the page's version word with one 8-byte READ.
                word = yield from self.read_version(raw_ptr)
                fresh = word == version
                if fresh:
                    self.cache.confirm(raw_ptr, epoch)
                else:
                    self.cache.reject(raw_ptr)
                if obs is not None:
                    obs.cache_revalidated(fresh)
            if fresh:
                self.cache.hits += 1
                if obs is not None:
                    obs.cache_hit.inc()
                self._served_versions[raw_ptr] = version
                # Only the local search cost; no page round trip. Serve
                # the entry's master as-is, like every read.
                yield self._search_cost
                return master
        self.cache.misses += 1
        if obs is not None:
            obs.cache_miss.inc()
        self._served_versions.pop(raw_ptr, None)
        node = yield from super().read_node(raw_ptr)
        self.cache.observe(node.level)
        if self.cache.cacheable(node):
            self.cache.store(raw_ptr, node, epoch)
        return node

    def try_lock(self, raw_ptr: int, version: int) -> Generator[Any, Any, bool]:
        obs = self.obs
        served = self._served_versions.pop(raw_ptr, None)
        if served == version:
            # The caller is about to CAS a version it got from our cache.
            # A stale image would make the CAS fail — and, left cached,
            # make every retry re-fail after re-reading the same stale
            # bytes. Revalidate with a 1-verb header READ first and drop
            # the image on mismatch so the retry refetches.
            word = yield from self.read_version(raw_ptr)
            if word != version:
                self.cache.reject(raw_ptr)
                if obs is not None:
                    obs.cache_revalidated(False)
                    obs.lock_contended.inc()
                return False
            self.cache.confirm(raw_ptr, self._epoch())
            if obs is not None:
                obs.cache_revalidated(True)
        swapped = yield from super().try_lock(raw_ptr, version)
        # Swapped: we hold the lock and will bump the version on unlock.
        # Not swapped: whatever image produced this version is stale. The
        # cached pre-lock image goes either way.
        self.invalidate(raw_ptr)
        return swapped

    # The writers drop the image when called and hand back the parent's
    # generator: no forwarding frame to re-enter on every resume.
    def unlock_write(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        self.invalidate(raw_ptr)
        return super().unlock_write(raw_ptr, node)

    def unlock_nochange(self, raw_ptr: int) -> Generator[Any, Any, None]:
        self.invalidate(raw_ptr)
        return super().unlock_nochange(raw_ptr)

    def write_node(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        self.invalidate(raw_ptr)
        return super().write_node(raw_ptr, node)


def attach_cache(
    trees: Iterable[BLinkTree], index, compute_server: ComputeServer
) -> None:
    """Swap the accessor the *trees* of one session share for a caching
    one per the cluster's :class:`~repro.config.CacheConfig`."""
    cache_cfg = index.cluster.config.cache
    accessor = CachingRemoteAccessor(
        index, compute_server, cache_cfg.depth, cache_cfg.capacity
    )
    for tree in trees:
        tree.acc = accessor


def cached_session(
    index, compute_server: ComputeServer, depth: int, capacity: int = 4096
):
    """A fine-grained session whose traversals cache the top *depth* tree
    levels, whatever the cluster's :class:`~repro.config.CacheConfig` says
    (set ``CacheConfig.depth > 0`` to cache every session instead)."""
    session = index.session(compute_server)
    session._tree.acc = CachingRemoteAccessor(index, compute_server, depth, capacity)
    return session
