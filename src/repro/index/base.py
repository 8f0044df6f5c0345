"""Public interface of the distributed index designs.

Every design exposes the same two-level API:

* a :class:`DistributedIndex` — the cluster-wide object created once by
  :meth:`build` (bulk load + handler registration + catalog entry);
* an :class:`IndexSession` — a per-compute-server handle created with
  :meth:`DistributedIndex.session`, whose operations are simulation
  processes. Each simulated client thread owns one session.

Operations (all generators; drive with ``yield from`` inside a process or
``Cluster.execute`` for one-off calls):

=============================  =============================================
``lookup(key)``                list of live payloads under *key*
``range_scan(low, high)``      sorted live ``(key, payload)`` pairs in
                               ``[low, high)``
``insert(key, value)``         add an entry (duplicates allowed)
``update(key, value)``         replace one payload; True if one existed
``delete(key)``                tombstone one entry; True if one existed
=============================  =============================================
"""

from __future__ import annotations

import abc
from typing import Any, Generator, List, Tuple

from repro.btree.algorithm import BLinkTree
from repro.nam.cluster import Cluster
from repro.nam.compute_server import ComputeServer

__all__ = ["IndexSession", "DistributedIndex"]


class IndexSession(abc.ABC):
    """A compute server's handle on a distributed index."""

    #: Workload tenant this session issues operations for; RPC-based
    #: designs stamp it on every request envelope so memory-server
    #: admission control can rate-limit and bulkhead per tenant
    #: (docs/overload.md). None — the default — is the anonymous tenant,
    #: which is never rate-limited.
    tenant: Any = None

    @abc.abstractmethod
    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        """Point query (workload A)."""

    @abc.abstractmethod
    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        """Range query over ``[low, high)`` (workload B)."""

    @abc.abstractmethod
    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        """Insert one entry (workloads C/D)."""

    @abc.abstractmethod
    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        """Replace the first live payload under *key*; True if one existed."""

    @abc.abstractmethod
    def delete(self, key: int) -> Generator[Any, Any, bool]:
        """Tombstone one entry for *key*; True if an entry existed."""


class DistributedIndex(abc.ABC):
    """A tree index distributed across the cluster's memory servers."""

    #: Human-readable design name ("coarse-grained" / "fine-grained" / "hybrid").
    design: str

    def __init__(self, cluster: Cluster, name: str) -> None:
        self.cluster = cluster
        self.name = name

    @classmethod
    @abc.abstractmethod
    def build(
        cls,
        cluster: Cluster,
        name: str,
        keys: List[int],
        values: List[int],
        **options: Any,
    ) -> "DistributedIndex":
        """Bulk-load the *keys* and *values* columns of sorted pairs and
        register the index.

        Columns ``insert`` would refuse — unsorted keys, a key outside
        ``[0, MAX_KEY)``, a payload with the tombstone bit, or unequal
        lengths — raise :class:`~repro.errors.IndexError_` before any
        page is allocated."""

    @abc.abstractmethod
    def session(self, compute_server: ComputeServer) -> IndexSession:
        """Open a session for clients running on *compute_server*."""

    @abc.abstractmethod
    def client_trees(self, compute_server: ComputeServer) -> List[Tuple[str, BLinkTree]]:
        """Labelled one-sided tree handles for *compute_server* that
        together reach every page of the index (the verifier's walk)."""

    def _structure_changed(self) -> None:
        """Publish an inner-node SMO so cached sessions revalidate (free
        catalog bookkeeping; behaviorally invisible without a cache)."""
        self.cluster.catalog.bump_structure_epoch(self.name)
