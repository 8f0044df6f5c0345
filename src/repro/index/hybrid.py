"""Design 3: the hybrid scheme (Section 5).

The upper levels (root + inner nodes) are partitioned coarse-grained: each
memory server holds the inner levels for its key range and answers
*traversal* RPCs that return a remote pointer to the leaf covering a key.
The leaf level is distributed fine-grained — leaves are scattered
round-robin across **all** servers — and accessed with one-sided verbs:

* lookups/scans: one traversal RPC, then one-sided leaf READs (with
  head-node prefetching for scans);
* inserts: traversal RPC, then the one-sided leaf protocol of Section 4;
  if the leaf splits, the client installs the new leaf itself (one-sided
  alloc + WRITE) and ships the separator to the partition owner with an
  ``InstallSeparator`` RPC, which the owner applies to its inner levels
  (Section 5.2);
* deletes: traversal RPC + one-sided tombstoning.

This combines the low traversal latency of RPCs with the aggregated leaf
bandwidth of all servers — which is why the hybrid is the paper's most
robust design (Section 6.1).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.bulk import bulk_load
from repro.errors import ConfigurationError
from repro.index.accessors import (
    LocalAccessor,
    LocalRootRef,
    RemoteAccessor,
)
from repro.index.base import DistributedIndex, IndexSession
from repro.index.partitioning import Partitioner, RangePartitioner
from repro.nam import rpc
from repro.nam.catalog import IndexDescriptor, RootLocation
from repro.nam.cluster import Cluster
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer

__all__ = ["HybridIndex", "HybridSession"]

_APP = "hybrid"


# --------------------------------------------------------------------------- #
# server-side RPC handlers (inner levels only)                                 #
# --------------------------------------------------------------------------- #

def _tree(server: MemoryServer, index_name: str, partition: int) -> BLinkTree:
    """The inner-level tree serving *partition* on *server* (a promoted
    host serves partitions besides its own; ``partition < 0`` means the
    server's native one)."""
    if partition < 0:
        partition = server.server_id
    return server.app[(_APP, index_name, partition)]


def _handle_traverse(server: MemoryServer, msg: rpc.TraverseRequest):
    tree = _tree(server, msg.index, msg.partition)
    _ptr, node = yield from tree._descend_to_level(msg.key, 1)
    response = rpc.PointerResponse(node.find_child(msg.key))
    return response, response.wire_bytes


def _handle_install_separator(server: MemoryServer, msg: rpc.InstallSeparatorRequest):
    tree = _tree(server, msg.index, msg.partition)
    yield from tree._install_separator(
        1, msg.separator, msg.new_child, msg.split_child
    )
    response = rpc.AckResponse()
    return response, response.wire_bytes


def _promotion_hook(
    name: str, roots: Dict[int, RootLocation], page_size: int, catalog=None
):
    """Re-install one partition's inner-level tree on a promoted host.

    Mirrors the coarse-grained hook: the adopted replica region carries the
    partition's inner pages and allocation high-water mark; leaf pages are
    unaffected (they live on *all* logical servers and are re-routed by the
    one-sided accessors individually).
    """
    from repro.nam.allocator import PageAllocator

    def hook(logical_id: int, host: MemoryServer, region) -> None:
        if logical_id not in roots:
            return
        allocator = PageAllocator.adopt(region, page_size)
        tree = BLinkTree(
            LocalAccessor(
                host, region=region, logical_id=logical_id, allocator=allocator
            ),
            LocalRootRef(host, roots[logical_id], region=region),
        )
        if catalog is not None:
            tree.on_structure_change = lambda: catalog.bump_structure_epoch(name)
        host.app[(_APP, name, logical_id)] = tree
        host.register_handler(rpc.TraverseRequest, _handle_traverse)
        host.register_handler(
            rpc.InstallSeparatorRequest, _handle_install_separator
        )

    return hook


# --------------------------------------------------------------------------- #
# the index                                                                     #
# --------------------------------------------------------------------------- #

class HybridIndex(DistributedIndex):
    """Partitioned inner levels + globally scattered leaf level."""

    design = "hybrid"

    def __init__(
        self,
        cluster: Cluster,
        name: str,
        partitioner: Partitioner,
        roots: Dict[int, RootLocation],
        use_head_nodes: bool,
    ) -> None:
        super().__init__(cluster, name)
        self.partitioner = partitioner
        self.roots = roots
        self.use_head_nodes = use_head_nodes

    @classmethod
    def build(
        cls,
        cluster: Cluster,
        name: str,
        pairs: Sequence[Tuple[int, int]],
        partitioner: Optional[Partitioner] = None,
        key_space: Optional[int] = None,
        head_interval: Optional[int] = None,
        **_options: Any,
    ) -> "HybridIndex":
        """Partition *pairs*; per partition, bulk-load inner nodes onto the
        owner and leaves round-robin across all servers."""
        config = cluster.config
        num_servers = cluster.num_memory_servers
        if head_interval is None:
            head_interval = config.tree.head_node_interval
        if partitioner is None:
            if key_space is None:
                key_space = (pairs[-1][0] + 1) if pairs else num_servers
            partitioner = RangePartitioner.uniform(key_space, num_servers)
        if partitioner.num_servers != num_servers:
            raise ConfigurationError(
                "partitioner server count does not match the cluster"
            )
        buckets: Dict[int, list] = defaultdict(list)
        for key, value in pairs:
            buckets[partitioner.server_for_key(key)].append((key, value))

        sink = cluster.direct_sink()
        # One global counter so leaves of *all* partitions interleave evenly
        # across servers (the property that defeats attribute-value skew).
        leaf_counter = count()
        head_counter = count(1)
        roots: Dict[int, RootLocation] = {}
        for server in cluster.memory_servers:
            server_id = server.server_id
            root_location = cluster.alloc_control_word(server_id)
            result = bulk_load(
                buckets.get(server_id, []),
                sink,
                place_leaf=lambda i: next(leaf_counter) % num_servers,
                place_inner=lambda level, i, s=server_id: s,
                place_head=lambda i: next(head_counter) % num_servers,
                fill=config.tree.bulk_fill,
                head_interval=head_interval,
                min_height=2,
            )
            cluster.write_control_word(
                server_id, root_location.offset, result.root_raw
            )
            roots[server_id] = root_location
            tree = BLinkTree(
                LocalAccessor(server), LocalRootRef(server, root_location)
            )
            # The partition owner applies every inner-level SMO of its
            # partition, so it is the one publishing structure epochs for
            # the client-side caches (see docs/caching.md).
            tree.on_structure_change = (
                lambda: cluster.catalog.bump_structure_epoch(name)
            )
            server.app[(_APP, name, server_id)] = tree
            server.register_handler(rpc.TraverseRequest, _handle_traverse)
            server.register_handler(
                rpc.InstallSeparatorRequest, _handle_install_separator
            )

        index = cls(cluster, name, partitioner, roots, head_interval > 0)
        cluster.catalog.register(
            IndexDescriptor(
                name=name,
                design=cls.design,
                roots=roots,
                partitioner=partitioner,
                use_head_nodes=index.use_head_nodes,
            )
        )
        if cluster.replication is not None:
            cluster.replication.register_promotion_hook(
                _promotion_hook(
                    name, roots, config.tree.page_size, catalog=cluster.catalog
                )
            )
        return index

    def session(self, compute_server: ComputeServer) -> "HybridSession":
        session = HybridSession(self, compute_server)
        if self.cluster.config.cache.depth > 0:
            # Uniform wiring with FG: the leaf accessor gains the cache
            # counters and write-validation plumbing. It caches nothing in
            # practice — hybrid clients only ever read leaves one-sided,
            # and the cached upper levels live server-side (the CG-style
            # partition trees *are* the cache for those levels).
            from repro.index.caching import attach_cache

            attach_cache(session._leaves, self, compute_server)
        return session

    def inner_tree(self, server_id: int) -> BLinkTree:
        """The server-resident inner-level tree (tests/validation).

        Routed: after a failover the tree lives on the promoted host."""
        replication = self.cluster.replication
        host_id = (
            replication.primary_host_id(server_id)
            if replication is not None
            else server_id
        )
        return _tree(self.cluster.memory_server(host_id), self.name, server_id)

    def gc_tree(self, compute_server: ComputeServer, server_id: int) -> BLinkTree:
        """A one-sided tree handle over partition *server_id* for the
        global leaf garbage collector (Section 5.2).

        Inner pages are ordinary registered memory, so the GC thread on a
        compute server can descend them with one-sided READs even though
        regular clients go through traversal RPCs.
        """
        from repro.index.accessors import RemoteRootRef

        accessor = RemoteAccessor(compute_server, self.cluster.config)
        root = RemoteRootRef(compute_server, self.roots[server_id])
        return BLinkTree(accessor, root)

    def start_gc(self, compute_server: ComputeServer, epoch_s: float = 0.05):
        """Launch the global leaf garbage collectors (Section 5.2): one
        sweeper per partition chain, all running on *compute_server*.
        Returns the collectors."""
        from repro.index.gc import EpochGarbageCollector

        collectors = []
        for server_id in self.roots:
            collector = EpochGarbageCollector(
                self.cluster.sim,
                self.gc_tree(compute_server, server_id),
                epoch_s=epoch_s,
            )
            collector.start()
            collectors.append(collector)
        return collectors


class _HybridLeafTree(BLinkTree):
    """Leaf-level operations over one-sided verbs.

    Only the ``*_at`` entry points are used (traversal happens via RPC);
    leaf splits route their separator installation back through the
    session's RPC path instead of ascending locally.
    """

    def __init__(self, accessor: RemoteAccessor, session: "HybridSession") -> None:
        super().__init__(
            accessor,
            root_ref=None,
            use_head_nodes=session.index.use_head_nodes,
            prefetch_window=session.index.cluster.config.tree.prefetch_window,
        )
        self._session = session

    def _install_separator(
        self, level: int, sep_key: int, new_child: int, split_child: int
    ) -> Generator[Any, Any, None]:
        yield from self._session._install_separator_rpc(
            sep_key, new_child, split_child
        )


class HybridSession(IndexSession):
    """Client-side handle: traversal RPCs + one-sided leaf access."""

    def __init__(self, index: HybridIndex, compute_server: ComputeServer) -> None:
        self.index = index
        self.compute_server = compute_server
        # One client thread's reliable connections (see Section 3.2 SRQs).
        for server in index.cluster.memory_servers:
            server.connected_qps += 1
        self._leaves = _HybridLeafTree(
            RemoteAccessor(compute_server, index.cluster.config), self
        )

    # -- RPC plumbing -------------------------------------------------------------

    def _call(self, server_id: int, request) -> Generator[Any, Any, Any]:
        return self.compute_server.qp(server_id).call(
            request, request.wire_bytes, tenant=self.tenant
        )

    def _traverse(self, server_id: int, key: int) -> Generator[Any, Any, int]:
        request = rpc.TraverseRequest(self.index.name, key, partition=server_id)
        response = yield from self._call(server_id, request)
        return response.raw

    def _install_separator_rpc(
        self, sep_key: int, new_child: int, split_child: int
    ) -> Generator[Any, Any, None]:
        server_id = self.index.partitioner.server_for_key(sep_key)
        request = rpc.InstallSeparatorRequest(
            self.index.name, sep_key, new_child, split_child, partition=server_id
        )
        yield from self._call(server_id, request)

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        server_id = self.index.partitioner.server_for_key(key)
        leaf_ptr = yield from self._traverse(server_id, key)
        return (yield from self._leaves.lookup_at(leaf_ptr, key))

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        server_ids = self.index.partitioner.servers_for_range(low, high)
        if not server_ids:
            return []
        if len(server_ids) == 1:
            return (yield from self._scan_partition(server_ids[0], low, high))
        sim = self.compute_server.sim
        scans = [
            sim.process(self._scan_partition(server_id, low, high))
            for server_id in server_ids
        ]
        partials = yield sim.all_of(scans)
        merged: List[Tuple[int, int]] = []
        for partial in partials:
            merged.extend(partial)
        merged.sort(key=lambda pair: pair[0])
        return merged

    def _scan_partition(
        self, server_id: int, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        leaf_ptr = yield from self._traverse(server_id, low)
        return (yield from self._leaves.scan_at(leaf_ptr, low, high))

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        server_id = self.index.partitioner.server_for_key(key)
        while True:
            leaf_ptr = yield from self._traverse(server_id, key)
            done = yield from self._leaves.insert_at(leaf_ptr, key, value)
            if done:
                return

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        server_id = self.index.partitioner.server_for_key(key)
        while True:
            leaf_ptr = yield from self._traverse(server_id, key)
            done, found = yield from self._leaves.update_at(leaf_ptr, key, value)
            if done:
                return found

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        server_id = self.index.partitioner.server_for_key(key)
        while True:
            leaf_ptr = yield from self._traverse(server_id, key)
            done, found = yield from self._leaves.delete_at(leaf_ptr, key)
            if done:
                return found
