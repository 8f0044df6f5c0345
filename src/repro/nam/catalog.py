"""The catalog service.

The paper notes (Section 4.2) that compute servers learn each index's root
pointer "as part of a catalog service that is anyway used during query
compilation". The catalog here records, per index: the design kind, the
partitioning function (if any), and where each root pointer word lives.
Catalog lookups model that compile-time metadata access and are free at
run time — root pointers themselves are cached and refreshed through RDMA
when a traversal discovers they are stale (B-link trees tolerate stale
roots, see :class:`repro.btree.accessor.RootRef`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import CatalogError

__all__ = ["RootLocation", "IndexDescriptor", "Catalog"]


@dataclass(frozen=True)
class RootLocation:
    """Where one root-pointer word lives: ``(server_id, byte offset)``."""

    server_id: int
    offset: int


@dataclass
class IndexDescriptor:
    """Everything a compute server needs to open a session on an index."""

    name: str
    design: str  # "coarse-grained" | "fine-grained" | "hybrid"
    #: Root-pointer words: one per partition for CG/hybrid (keyed by memory
    #: server id), a single entry keyed by the home server for FG.
    roots: Dict[int, RootLocation] = field(default_factory=dict)
    partitioner: Optional[object] = None
    use_head_nodes: bool = False
    #: Monotone counter of structure modifications (splits, separator
    #: installs, root growth) applied to this index's *inner* levels.
    #: Client-side node caches compare the epoch an image was filled under
    #: against the current value: images from older epochs are revalidated
    #: (1-verb READ of the version word) instead of trusted outright. Like
    #: every catalog field this is compile-time metadata — reading it is
    #: free at run time (see module docstring).
    structure_epoch: int = 0


class Catalog:
    """Cluster-wide registry of index descriptors."""

    def __init__(self) -> None:
        self._indexes: Dict[str, IndexDescriptor] = {}
        #: Directory epoch for server indirection. Bumped by the
        #: replication manager on every failover (which also re-points
        #: the compute servers' queue pairs); a queue pair whose retry
        #: budget ran out compares it with the value it started under to
        #: tell whether someone else already failed over.
        self.epoch = 0

    def register(self, descriptor: IndexDescriptor) -> None:
        if descriptor.name in self._indexes:
            raise CatalogError(f"index {descriptor.name!r} already registered")
        self._indexes[descriptor.name] = descriptor

    def lookup(self, name: str) -> IndexDescriptor:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def bump_structure_epoch(self, name: str) -> int:
        """Record an inner-level SMO on index *name*; returns the new epoch.

        Called by the B-link trees of writers (client-side for FG, the
        partition owner for hybrid) right after a separator install or a
        root swing completes. Unknown names are a :class:`CatalogError` —
        a bump for a dropped index means a tree handle outlived its index.
        """
        descriptor = self.lookup(name)
        descriptor.structure_epoch += 1
        return descriptor.structure_epoch

    def structure_epoch(self, name: str) -> int:
        """Current structure epoch of index *name*."""
        return self.lookup(name).structure_epoch

    def drop(self, name: str) -> None:
        if name not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self._indexes[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._indexes)

    def __contains__(self, name: str) -> bool:
        return name in self._indexes
