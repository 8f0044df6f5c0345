"""Coherent client-side caching of index nodes (Appendix A.4).

The appendix observes that compute servers can cache hot index nodes to
save remote round trips — trivially beneficial for read-only workloads,
hard in general because updates must invalidate cached nodes. This module
implements the real design axis the appendix only sketches: one class,
:class:`CachingRemoteAccessor`, a one-sided accessor that keeps a
per-client LRU of *inner* pages with a configurable **cache depth** (how
many of the top tree levels are cached), kept coherent through three
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

Wire-up: :class:`repro.config.CacheConfig` ``depth > 0`` is the one
switch, and the fine-grained session is the one place that builds the
accessor. Coarse-grained and hybrid sessions leave ``CacheConfig`` unread:
their partition owners serve the inner levels. The observability hub's
``nam_cache_{hits,misses,revalidations,revalidation_misses,invalidations}_total``
counters are the cache's one ledger.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, List

from repro.btree.node import Node
from repro.index.accessors import RemoteAccessor
from repro.nam.compute_server import ComputeServer

__all__ = ["CACHE_PAGES", "CachingRemoteAccessor"]

#: LRU capacity in pages of one client's cache.
CACHE_PAGES = 4096


class CachingRemoteAccessor(RemoteAccessor):
    """One-sided access through a coherent per-client cache of inner pages.

    One policy: *depth* — cache the top *depth* tree levels, relative to
    the highest level this client has observed (its root-level estimate);
    always clipped above the leaves. Staleness is bounded by epoch and
    version revalidation, never by a clock.

    The structure epoch is read off *index*'s registered catalog
    descriptor — compile-time metadata, free to read at run time (see
    :mod:`repro.nam.catalog`) — so SMOs published by any writer (through
    :attr:`BLinkTree.on_structure_change`) are visible to every cached
    session immediately.
    """

    def __init__(
        self,
        index,
        compute_server: ComputeServer,
        depth: int,
        capacity: int = CACHE_PAGES,
    ) -> None:
        super().__init__(compute_server, index.cluster.config)
        self.depth = depth
        self.capacity = capacity
        #: Highest node level this client has seen (root-level estimate).
        self.top_level = 0
        #: raw_ptr -> [version, epoch, master] in LRU order, where
        #: ``master`` is the decode memo's master of the page image it was
        #: filled from — served as-is, like every read; the bytes are never
        #: kept. Writers clone a master after their lock CAS, so nobody
        #: mutates it. Every coherence action drops the entry whole.
        self.entries: "OrderedDict[int, List[Any]]" = OrderedDict()
        self._descriptor = index.cluster.catalog.lookup(index.name)
        #: raw_ptr -> version of the image this client last served from
        #: cache (cleared on fresh reads/locks): marks the versions whose
        #: lock attempts must be revalidated before the CAS.
        self._served_versions: Dict[int, int] = {}

    def invalidate(self, raw_ptr: int) -> None:
        """Drop one page (writes, lock attempts)."""
        self._served_versions.pop(raw_ptr, None)
        if self.entries.pop(raw_ptr, None) is not None and self.obs is not None:
            self.obs.cache_invalidated.inc()

    def _confirm(self, raw_ptr: int, epoch: int) -> None:
        """A revalidation READ matched: the image is current up to *epoch*."""
        entry = self.entries.get(raw_ptr)
        if entry is not None:
            entry[1] = epoch

    # -- accessor overrides ---------------------------------------------------

    def read_node(
        self, raw_ptr: int, _ignored: bool = False
    ) -> Generator[Any, Any, Node]:
        obs = self.obs
        entries = self.entries
        epoch = self._descriptor.structure_epoch
        entry = entries.get(raw_ptr)
        if entry is not None:
            entries.move_to_end(raw_ptr)
            version, filled, master = entry
            fresh = filled >= epoch
            if not fresh:
                # The structure epoch moved since this image was filled:
                # re-check the page's version word with one 8-byte READ.
                word = yield from self.read_version(raw_ptr)
                fresh = word == version
                if fresh:
                    self._confirm(raw_ptr, epoch)
                else:
                    entries.pop(raw_ptr, None)
                if obs is not None:
                    obs.cache_revalidated(fresh)
            if fresh:
                if obs is not None:
                    obs.cache_hit.inc()
                self._served_versions[raw_ptr] = version
                # Only the local search cost; no page round trip. Serve
                # the entry's master as-is, like every read.
                yield self._search_cost
                return master
        if obs is not None:
            obs.cache_miss.inc()
        self._served_versions.pop(raw_ptr, None)
        node = yield from super().read_node(raw_ptr)
        level = node.level
        if level > self.top_level:
            self.top_level = level
        # Inner, unlocked and within the top *depth* levels.
        if level > self.top_level - self.depth and node.is_inner and not node.is_locked:
            entries[raw_ptr] = [node.version, epoch, node]
            entries.move_to_end(raw_ptr)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
        return node

    def try_lock(self, raw_ptr: int, version: int) -> Generator[Any, Any, bool]:
        obs = self.obs
        if self._served_versions.pop(raw_ptr, None) == version:
            # The caller is about to CAS a version it got from our cache.
            # A stale image would make the CAS fail — and, left cached,
            # make every retry re-fail after re-reading the same stale
            # bytes. Revalidate with a 1-verb header READ first and drop
            # the image on mismatch so the retry refetches.
            word = yield from self.read_version(raw_ptr)
            if word != version:
                self.entries.pop(raw_ptr, None)
                if obs is not None:
                    obs.cache_revalidated(False)
                    obs.lock_contended.inc()
                return False
            self._confirm(raw_ptr, self._descriptor.structure_epoch)
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
