"""Design 2: fine-grained distribution, one-sided access (Section 4).

One global B-link tree whose nodes are distributed round-robin across all
memory servers (level by level) and connected through remote pointers.
Compute servers execute every operation themselves with one-sided verbs:
READ to fetch pages, CAS/FETCH_AND_ADD on the version word for remote
spinlocks (Listings 2 and 4), WRITE to install modified pages, and
FETCH_AND_ADD on the allocation word for remote page allocation.

The leaf level carries *head nodes* (Section 4.3): per group of
``head_node_interval`` leaves, an extra page listing the group's leaf
pointers that range scans use to prefetch leaves in parallel.

Because the fine-grained design is the only one whose *locks* are held by
compute servers, it is the design exposed to client crashes: a compute
server that dies inside a critical section leaves the lock bit set
forever. Sessions therefore go through :class:`RemoteAccessor`, whose
lease-stamped lock words let surviving clients steal locks from crashed
holders once ``RetryConfig.lock_lease_s`` elapses (see
:mod:`repro.index.accessors`); recovery activates only while a
:class:`~repro.rdma.faults.FaultInjector` is attached to the cluster.

Under replication (``replication_factor > 1``) failover is entirely
transparent to this design: remote pointers name logical servers, and the
routed accessors (:class:`RemoteAccessor` / :class:`RemoteRootRef`) fail
over to the promoted backup on retries-exhausted — no server-resident
state exists to re-install, so no promotion hooks are needed here.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.bulk import bulk_load, check_columns
from repro.index.base import DistributedIndex, IndexSession
from repro.index.caching import CachingRemoteAccessor
from repro.index.partitioned import client_tree
from repro.index.partitioning import Partitioner
from repro.nam.catalog import IndexDescriptor, RootLocation
from repro.nam.cluster import Cluster
from repro.nam.compute_server import ComputeServer

__all__ = ["FineGrainedIndex", "FineGrainedSession"]


class FineGrainedIndex(DistributedIndex):
    """A single global tree, nodes scattered per-page across all servers."""

    design = "fine-grained"

    def __init__(
        self,
        cluster: Cluster,
        name: str,
        root_location: RootLocation,
        use_head_nodes: bool,
    ) -> None:
        super().__init__(cluster, name)
        self.root_location = root_location
        self.use_head_nodes = use_head_nodes

    @classmethod
    def build(
        cls,
        cluster: Cluster,
        name: str,
        keys: List[int],
        values: List[int],
        home_server: int = 0,
        partitioner: Optional[Partitioner] = None,
        key_space: Optional[int] = None,
    ) -> "FineGrainedIndex":
        """Bulk-load the *keys* and *values* columns of sorted pairs
        round-robin across all memory servers.

        *partitioner* and *key_space* are accepted and ignored — one tree
        spans every server — so one call builds any design; any other
        keyword raises ``TypeError``.

        The columns are checked once
        (:func:`~repro.btree.bulk.check_columns`) before the root pointer
        word or any page is allocated.

        The root pointer word lives on *home_server* (its location is the
        catalog entry compute servers start from). Head nodes go in every
        ``TreeConfig.head_node_interval`` leaves; 0 disables them.
        """
        config = cluster.config
        head_interval = config.tree.head_node_interval
        num_servers = cluster.num_memory_servers
        check_columns(keys, values)
        root_location = cluster.alloc_control_word(home_server)
        result = bulk_load(
            keys,
            values,
            cluster.direct_sink(),
            place_leaf=lambda i: i % num_servers,
            place_inner=lambda level, i: (level + i) % num_servers,
            place_head=lambda i: (i + 1) % num_servers,
            fill=config.tree.bulk_fill,
            head_interval=head_interval,
        )
        cluster.write_control_word(
            home_server, root_location.offset, result.root_raw
        )
        index = cls(cluster, name, root_location, use_head_nodes=head_interval > 0)
        cluster.catalog.register(
            IndexDescriptor(
                name=name,
                design=cls.design,
                roots={home_server: root_location},
                use_head_nodes=index.use_head_nodes,
            )
        )
        return index

    def session(self, compute_server: ComputeServer) -> "FineGrainedSession":
        return FineGrainedSession(self, compute_server)

    def tree_for(self, compute_server: ComputeServer) -> BLinkTree:
        """A raw client-side tree handle (used by tests and the global GC)."""
        tree = client_tree(
            self.cluster, compute_server, self.root_location, self.use_head_nodes
        )
        tree.on_structure_change = self._structure_changed
        return tree

    def client_trees(self, compute_server: ComputeServer) -> List[Tuple[str, BLinkTree]]:
        return [(self.design, self.tree_for(compute_server))]

    def start_gc(
        self,
        compute_server: ComputeServer,
        epoch_s: float = 0.05,
        rebuild_heads: Optional[bool] = None,
    ):
        """Launch the global epoch garbage collector (Section 4.2).

        It runs on *compute_server* with one-sided verbs — the paper
        explains it cannot run server-locally because local and remote
        atomics must not mix on the same words. Returns the collector
        (set ``collector.stopped = True`` to stop it).
        """
        from repro.index.gc import EpochGarbageCollector

        if rebuild_heads is None:
            rebuild_heads = self.use_head_nodes
        collector = EpochGarbageCollector(
            self.cluster.sim,
            self.tree_for(compute_server),
            epoch_s=epoch_s,
            rebuild_heads=rebuild_heads,
            head_interval=self.cluster.config.tree.head_node_interval or 8,
        )
        collector.start()
        return collector


class FineGrainedSession(IndexSession):
    """Client-side handle: operations are pure one-sided verb sequences."""

    def __init__(self, index: FineGrainedIndex, compute_server: ComputeServer) -> None:
        self.index = index
        self.compute_server = compute_server
        self._tree = index.tree_for(compute_server)
        # The one switch of the client-side node cache (docs/caching.md).
        depth = index.cluster.config.cache.depth
        if depth > 0:
            self._tree.acc = CachingRemoteAccessor(index, compute_server, depth)

    # The tree's generators are handed out as they are: a forwarding
    # ``yield from`` frame would be re-entered on every resume.
    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        return self._tree.lookup(key)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        return self._tree.range_scan(low, high)

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        return self._tree.insert(key, value)

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        return self._tree.update(key, value)

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        return self._tree.delete(key)
