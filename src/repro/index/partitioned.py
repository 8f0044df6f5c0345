"""The two mechanisms the three designs are made of.

The paper's design space has two axes — distribution (coarse / fine) and
access (two-sided / one-sided) — and one mechanism per access path, each
of which lives here once:

* the **partitioned, server-resident half** (:class:`PartitionedIndex`,
  :class:`PartitionedSession`): the key space is split across the memory
  servers, each keeps a B-link tree over its share in its own region and
  serves it to RPC handlers through a ``LocalAccessor``. Design 1 keeps
  whole trees this way, Design 3 its inner levels;
* the **one-sided tree handle** (:func:`client_tree`): a tree a compute
  server drives over a root pointer word with one-sided verbs alone.
  Design 2 is nothing else; Design 3's leaf garbage collector, Design 1's
  co-located fast path and the verifier's walk are further uses.

A session of either partitioned design is a router over one *handle* per
partition (:class:`PartitionedSession`): the five operations are written
once, as "the owning partition's handle does it". What stays in
:mod:`~repro.index.coarse_grained` and :mod:`~repro.index.hybrid` is what
differs: the RPC handlers, where bulk-loaded leaves go, and which handle a
session holds — an RPC stub, a :func:`client_tree` for a co-located
partition, or a leaf tree whose way to the leaf is a traversal RPC.
"""

from __future__ import annotations

import abc
from operator import itemgetter
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.bulk import bulk_load, check_columns
from repro.errors import ConfigurationError
from repro.index.accessors import (
    LocalAccessor,
    LocalRootRef,
    RemoteAccessor,
    RemoteRootRef,
)
from repro.index.base import DistributedIndex, IndexSession
from repro.index.gc import EpochGarbageCollector
from repro.index.partitioning import Partitioner, RangePartitioner
from repro.nam.allocator import PageAllocator
from repro.nam.catalog import IndexDescriptor, RootLocation
from repro.nam.cluster import Cluster
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import Handler, MemoryServer
from repro.nam.rpc import TreeCall
from repro.rdma.memory import MemoryRegion

__all__ = ["PartitionedIndex", "PartitionedSession", "client_tree", "merge_partials"]


def client_tree(
    cluster: Cluster,
    compute_server: ComputeServer,
    root_location: RootLocation,
    use_head_nodes: bool = False,
    alloc_server_id: Optional[int] = None,
) -> BLinkTree:
    """A one-sided tree handle for *compute_server* over the root pointer
    word at *root_location* — the one constructor of such a handle.

    Pages are reached through the compute server's routed queue pairs, so
    the handle follows a failover by itself. *use_head_nodes* lets range
    scans prefetch through head nodes; *alloc_server_id* pins page
    allocation to one server (a partition tree's pages must stay on the
    partition owner) instead of spreading it round-robin.
    """
    config = cluster.config
    return BLinkTree(
        RemoteAccessor(compute_server, config, alloc_server_id=alloc_server_id),
        RemoteRootRef(compute_server, root_location),
        use_head_nodes=use_head_nodes,
        prefetch_window=config.tree.prefetch_window,
    )


def merge_partials(partials: Iterable[List[Tuple[int, int]]]) -> List[Tuple[int, int]]:
    """Merge the per-partition results of a scattered range scan by key.

    The sort is stable and by key alone, so a key's duplicates — which all
    live in one partition — stay in their leaf order; a plain ``sort()``
    would reorder them by payload. The key is a C-level ``itemgetter``,
    not a Python call per pair."""
    merged: List[Tuple[int, int]] = []
    for partial in partials:
        merged.extend(partial)
    merged.sort(key=itemgetter(0))
    return merged


class PartitionedIndex(DistributedIndex):
    """One server-resident B-link tree per memory server, over that
    server's share of the key space.

    A design supplies class data, not options: its :attr:`handlers`, its
    leaf placement (:meth:`_placement`) and whether its trees publish
    structure changes. Trees are registered under ``server.app[design, name,
    partition]`` — keyed by *logical* partition because a promoted host
    serves partitions besides its own — and every request names the
    partition it targets.
    """

    #: Tree-call op name -> handler, registered on every host of a partition.
    handlers: Dict[str, Handler]
    #: Whether leaves carry head nodes (coarse-grained trees never do).
    use_head_nodes = False
    #: ``BLinkTree.on_structure_change`` of every partition tree.
    on_structure_change: Optional[Callable[..., None]] = None

    def __init__(
        self,
        cluster: Cluster,
        name: str,
        partitioner: Partitioner,
        roots: Dict[int, RootLocation],
    ) -> None:
        super().__init__(cluster, name)
        self.partitioner = partitioner
        self.roots = roots

    @classmethod
    def build(
        cls,
        cluster: Cluster,
        name: str,
        keys: List[int],
        values: List[int],
        partitioner: Optional[Partitioner] = None,
        key_space: Optional[int] = None,
    ) -> "PartitionedIndex":
        """Partition the *keys* and *values* columns of sorted pairs and
        bulk-load one tree per memory server.

        The columns are checked once
        (:func:`~repro.btree.bulk.check_columns`) before any control word
        or page is allocated; :meth:`Partitioner.split` then cuts them into
        each server's share — one slice per server under range
        partitioning. Without an explicit *partitioner*, keys are
        range-partitioned uniformly over ``[0, key_space)`` (*key_space*
        defaults to ``max key + 1``). The design's :meth:`_placement` says
        where the leaves go; any other keyword raises ``TypeError``.
        """
        num_servers = cluster.num_memory_servers
        check_columns(keys, values)
        if partitioner is None:
            if key_space is None:
                key_space = keys[-1] + 1 if keys else num_servers
            partitioner = RangePartitioner.uniform(key_space, num_servers)
        if partitioner.num_servers != num_servers:
            raise ConfigurationError(
                "partitioner server count does not match the cluster"
            )
        shares = partitioner.split(keys, values)

        index = cls(cluster, name, partitioner, {})
        placement = index._placement()
        sink = cluster.direct_sink()
        fill = cluster.config.tree.bulk_fill
        for server in cluster.memory_servers:
            server_id = server.server_id
            root_location = cluster.alloc_control_word(server_id)
            result = bulk_load(
                *shares[server_id],
                sink,
                place_inner=lambda level, i, owner=server_id: owner,
                fill=fill,
                **placement(server_id),
            )
            cluster.write_control_word(
                server_id, root_location.offset, result.root_raw
            )
            index.roots[server_id] = root_location
            index._install(server_id, server)
        cluster.catalog.register(
            IndexDescriptor(
                name=name,
                design=cls.design,
                roots=index.roots,
                partitioner=partitioner,
                use_head_nodes=index.use_head_nodes,
            )
        )
        if cluster.replication is not None:
            cluster.replication.register_promotion_hook(index._install)
        return index

    @abc.abstractmethod
    def _placement(self) -> Callable[[int], Dict[str, Any]]:
        """Where the design's leaves go (inner pages are always on the
        partition owner): called once per build, returns
        ``owner -> bulk_load keywords``."""

    def _install(
        self,
        logical_id: int,
        host: MemoryServer,
        region: Optional[MemoryRegion] = None,
    ) -> None:
        """Register partition *logical_id*'s tree and the design's handlers
        on *host* — at build time the partition's own server.

        With a *region* this is the promotion hook: *host* was just
        promoted and adopts the replica copy of the failed partition. The
        tree and its allocator operate on the adopted region (whose bump
        word carries the dead primary's allocation high-water mark), while
        RPC CPU time is charged to the new host's workers.
        """
        allocator = None
        if region is not None:
            allocator = PageAllocator.adopt(
                region, self.cluster.config.tree.page_size
            )
        tree = BLinkTree(
            LocalAccessor(
                host, region=region, logical_id=logical_id, allocator=allocator
            ),
            LocalRootRef(host, self.roots[logical_id], region=region),
        )
        tree.on_structure_change = self.on_structure_change
        host.app[self.design, self.name, logical_id] = tree
        for op, handler in self.handlers.items():
            host.register_handler(op, handler)

    def partition_tree(self, server_id: int) -> BLinkTree:
        """The server-resident tree of one partition (tests/validation).

        Routed: after a failover the tree lives on the promoted host."""
        replication = self.cluster.replication
        host_id = server_id
        if replication is not None:
            host_id = replication.primary_host_id(server_id)
        host = self.cluster.memory_server(host_id)
        return host.app[self.design, self.name, server_id]

    def client_trees(self, compute_server: ComputeServer) -> List[Tuple[str, BLinkTree]]:
        return [
            (
                f"{self.design} partition {server_id}",
                client_tree(
                    self.cluster, compute_server, location, self.use_head_nodes
                ),
            )
            for server_id, location in sorted(self.roots.items())
        ]

    def _start_collectors(
        self, trees: Iterable[BLinkTree], epoch_s: float
    ) -> List[EpochGarbageCollector]:
        """Launch one epoch garbage collector per tree of *trees*."""
        collectors = []
        for tree in trees:
            collector = EpochGarbageCollector(self.cluster.sim, tree, epoch_s=epoch_s)
            collector.start()
            collectors.append(collector)
        return collectors


class PartitionedSession(IndexSession):
    """A client thread's connections to every partition owner, and a router
    over them: each operation goes to the handle of the partition(s) that
    own its key(s).

    A handle is anything with the five operations over one partition's
    share of the keys; the design fills :attr:`_trees` with one per
    partition — an RPC stub, a one-sided :func:`client_tree`, a leaf tree
    behind a traversal RPC — and *which* handle is all it decides.
    """

    def __init__(self, index: PartitionedIndex, compute_server: ComputeServer) -> None:
        self.index = index
        self.compute_server = compute_server
        #: partition -> its handle (filled by the design's constructor).
        self._trees: Dict[int, Any] = {}
        # Each session models one client thread's reliable connections; the
        # count drives the per-client receive-queue polling cost when SRQs
        # are disabled (Section 3.2).
        for server in index.cluster.memory_servers:
            server.connected_qps += 1

    def _call(self, partition: int, op: str, *args: int) -> Generator[Any, Any, Any]:
        """The tree call *op* on *partition*, sent to its host tenant-stamped;
        returns the handler's plain result."""
        call = TreeCall(op, self.index.name, partition, args)
        return self.compute_server.qps[partition].call(
            call, call.wire_bytes, tenant=self.tenant
        )

    # Point operations hand out the owning handle's generator as it is: a
    # forwarding ``yield from`` frame would be re-entered on every resume.
    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        return self._trees[self.index.partitioner.server_for_key(key)].lookup(key)

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        return self._trees[self.index.partitioner.server_for_key(key)].insert(key, value)

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        return self._trees[self.index.partitioner.server_for_key(key)].update(key, value)

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        return self._trees[self.index.partitioner.server_for_key(key)].delete(key)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        """Scan every partition whose share intersects ``[low, high)`` —
        all of them under hash partitioning — in parallel, and merge. A
        scan inside one partition is that handle's generator, as it is."""
        server_ids = self.index.partitioner.servers_for_range(low, high)
        if len(server_ids) == 1:
            return self._trees[server_ids[0]].range_scan(low, high)
        return self._scatter(low, high, server_ids)

    def _scatter(
        self, low: int, high: int, server_ids: List[int]
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        if not server_ids:
            return []
        sim = self.compute_server.sim
        scans = [
            sim.process(self._trees[server_id].range_scan(low, high))
            for server_id in server_ids
        ]
        partials = yield sim.all_of(scans)
        return merge_partials(partials)
