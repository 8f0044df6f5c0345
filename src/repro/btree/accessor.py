"""Abstract node access for the B-link algorithms.

The paper implements the *same* logical B-link tree three times, differing
only in where nodes live and which RDMA primitives touch them. We factor
that difference into a :class:`NodeAccessor`: the algorithm layer
(:mod:`repro.btree.algorithm`) is written once against this interface, and
each index design supplies an accessor:

* the coarse-grained design runs a *local* accessor inside memory-server RPC
  handlers (local reads, local CAS/FAA, CPU time charged to the worker);
* the fine-grained design runs a *remote* accessor on compute servers
  (one-sided READ/WRITE/CAS/FAA over queue pairs);
* the hybrid design uses the local accessor for inner levels and the remote
  accessor for the leaf level.

All methods are simulation processes (generators); the lock protocol follows
the paper's listings: versions are even when unlocked, ``try_lock`` is a CAS
setting bit 0, and both unlock variants are a FETCH_AND_ADD of 1 (restoring
an even, incremented version).

Crash recovery: an accessor may additionally support *lock leases* — a
client that observes the same locked version word for at least
``lock_lease_s()`` seconds may conclude the holder crashed and
``try_steal_lock`` it (a CAS back to an unlocked, version-advanced word).
The base implementations disable leases, so the algorithm layer pays
nothing unless an accessor opts in (remote accessors do, while a fault
injector is attached).

A :class:`RootRef` abstracts where an index's root pointer lives and how it
is atomically swung on a root split.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, Optional

from repro.btree.node import Node

__all__ = ["NodeAccessor", "RootRef"]


class NodeAccessor(abc.ABC):
    """Storage- and transport-specific node operations.

    ``page_size`` must be set by implementations; all node I/O moves whole
    pages of that size.
    """

    page_size: int

    #: Optional :class:`repro.obs.hub.Observability` hub. Concrete
    #: accessors wire it from their server/fabric at construction; the
    #: algorithm layer and GC read it to emit traversal spans and lock
    #: metrics. None (the class default) keeps every emission point a
    #: single attribute test.
    obs = None

    @abc.abstractmethod
    def read_node(
        self, raw_ptr: int, _ignored: bool = False
    ) -> Generator[Any, Any, Node]:
        """Fetch and decode the page at *raw_ptr* (may be locked).

        Every caller gets the master of the cluster's decode memo, one
        object shared by every client thread and every RPC worker of the
        cluster: mutating it in place is cluster-wide corruption, not a
        per-client one. A writer changes a :meth:`Node.clone`, made once
        its lock CAS has succeeded, and ``unlock_write`` publishes that
        clone as the master of the version it creates.

        The second argument is ignored, and no caller under ``src/``
        passes it. It remains because ``benchmarks/nambench/ledger.py``
        still passes ``True`` positionally, from when read-only callers
        asked for the master and the rest got clones.
        """

    @abc.abstractmethod
    def write_node(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        """Write a full page image (used to install freshly split nodes)."""

    @abc.abstractmethod
    def try_lock(self, raw_ptr: int, version: int) -> Generator[Any, Any, bool]:
        """CAS the lock word from *version* to ``version | 1``.

        Returns True on success; on failure the caller restarts (the
        paper's ``upgradeToWriteLockOrRestart``).
        """

    @abc.abstractmethod
    def unlock_write(self, raw_ptr: int, node: Node) -> Generator[Any, Any, None]:
        """Write the modified *node* back and release its lock.

        Implementations write the page with the locked version in word 0
        and then FETCH_AND_ADD(1) the lock word (Listing 4's
        ``remote_writeUnlock``). *node* is the writer's own clone; the
        cluster accessors keep it as the decode memo's master of the new
        version when the FAA proves the page holds it, so the caller must
        not change it afterwards.
        """

    @abc.abstractmethod
    def unlock_nochange(self, raw_ptr: int) -> Generator[Any, Any, None]:
        """Release a lock without modifying the node (FETCH_AND_ADD(1))."""

    @abc.abstractmethod
    def alloc(self, level: int) -> Generator[Any, Any, int]:
        """Allocate a fresh page for a node of *level*; returns its raw pointer."""

    @abc.abstractmethod
    def spin_pause(self) -> Generator[Any, Any, None]:
        """Back off briefly before re-reading a locked node (spinlock)."""

    # -- lock-lease recovery (optional) ----------------------------------------

    def now(self) -> float:
        """Current virtual time, used to age observed lock words. Only
        meaningful when :meth:`lock_lease_s` returns a lease."""
        return 0.0

    def lock_lease_s(self) -> Optional[float]:
        """Lease after which an *unchanged* locked word may be stolen.

        None (the default) disables recovery: spinners wait forever, as in
        the paper's crash-free model."""
        return None

    def try_steal_lock(
        self, raw_ptr: int, observed_word: int
    ) -> Generator[Any, Any, bool]:
        """CAS the lock word from *observed_word* (a locked value that has
        outlived its lease) to an unlocked, version-advanced value.

        Returns True if this client performed the steal. The page content
        is consistent whichever instant the holder died at: either the
        pre-lock image, or a fully written page whose split (if any) is
        reachable through the B-link sibling pointer."""
        return False
        yield  # pragma: no cover - unreachable; makes this a generator

    def read_nodes(self, raw_ptrs) -> Generator[Any, Any, list]:
        """Fetch several pages; the base implementation is serial.

        Remote accessors override this with a parallel implementation
        (selectively signaled READs, Section 4.3) so head-node prefetching
        actually overlaps round trips.
        """
        nodes = []
        for raw_ptr in raw_ptrs:
            node = yield from self.read_node(raw_ptr)
            nodes.append(node)
        return nodes


class RootRef(abc.ABC):
    """Where an index root pointer lives and how it changes.

    Root pointers are ordinary 8-byte words (in some server's registered
    region) so they can be swung with CAS on a root split. B-link trees
    tolerate stale roots — a traversal from a pre-split root still reaches
    every key via move-right — which is why compute servers may cache the
    value (Section 4.2's catalog discussion).
    """

    @abc.abstractmethod
    def get(self) -> Generator[Any, Any, int]:
        """Current root pointer (possibly cached)."""

    @abc.abstractmethod
    def refresh(self) -> Generator[Any, Any, int]:
        """Re-read the authoritative root pointer, bypassing any cache."""

    @abc.abstractmethod
    def compare_and_swap(self, old: int, new: int) -> Generator[Any, Any, bool]:
        """Atomically swing the root from *old* to *new*."""
