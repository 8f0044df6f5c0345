"""Design 1: coarse-grained distribution, two-sided access (Section 3).

The key space is partitioned (range- or hash-based) across the memory
servers; each server holds a complete B-link tree for its partition,
co-locating inner and leaf nodes. Compute servers never touch pages
directly — every operation is an RPC over SEND/RECEIVE handled by a
memory-server worker, which traverses its local tree under optimistic lock
coupling (Listings 1 and 3).

Routing (client side):

* point lookups / inserts / deletes go to the single owning server;
* range scans go to every server whose partition intersects the range —
  all of them under hash partitioning — issued in parallel and merged.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.bulk import bulk_load
from repro.errors import ConfigurationError
from repro.index.accessors import LocalAccessor, LocalRootRef
from repro.index.base import DistributedIndex, IndexSession
from repro.index.partitioning import Partitioner, RangePartitioner
from repro.nam import rpc
from repro.nam.catalog import IndexDescriptor, RootLocation
from repro.nam.cluster import Cluster
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer

__all__ = ["CoarseGrainedIndex", "CoarseGrainedSession"]

_APP = "coarse-grained"


# --------------------------------------------------------------------------- #
# server-side RPC handlers                                                     #
# --------------------------------------------------------------------------- #

def _tree(server: MemoryServer, index_name: str, partition: int) -> BLinkTree:
    """The tree serving *partition* on *server*.

    Trees are keyed by logical partition because a promoted host serves
    partitions besides its own. ``partition < 0`` (a pre-replication
    client) means "whatever this server natively owns".
    """
    if partition < 0:
        partition = server.server_id
    return server.app[(_APP, index_name, partition)]


def _handle_point_lookup(server: MemoryServer, msg: rpc.PointLookupRequest):
    values = yield from _tree(server, msg.index, msg.partition).lookup(msg.key)
    response = rpc.ValueResponse(tuple(values))
    return response, response.wire_bytes


def _handle_range_scan(server: MemoryServer, msg: rpc.RangeScanRequest):
    pairs = yield from _tree(server, msg.index, msg.partition).range_scan(
        msg.low, msg.high
    )
    response = rpc.PairsResponse(tuple(pairs))
    return response, response.wire_bytes


def _handle_insert(server: MemoryServer, msg: rpc.InsertRequest):
    yield from _tree(server, msg.index, msg.partition).insert(msg.key, msg.value)
    response = rpc.AckResponse()
    return response, response.wire_bytes


def _handle_update(server: MemoryServer, msg: rpc.UpdateRequest):
    found = yield from _tree(server, msg.index, msg.partition).update(
        msg.key, msg.value
    )
    response = rpc.AckResponse(ok=found)
    return response, response.wire_bytes


def _handle_delete(server: MemoryServer, msg: rpc.DeleteRequest):
    found = yield from _tree(server, msg.index, msg.partition).delete(msg.key)
    response = rpc.AckResponse(ok=found)
    return response, response.wire_bytes


_HANDLERS = {
    rpc.PointLookupRequest: _handle_point_lookup,
    rpc.RangeScanRequest: _handle_range_scan,
    rpc.InsertRequest: _handle_insert,
    rpc.UpdateRequest: _handle_update,
    rpc.DeleteRequest: _handle_delete,
}


def _promotion_hook(name: str, roots: Dict[int, "RootLocation"], page_size: int):
    """Re-install one index's partition tree on a freshly promoted host.

    The promoted host adopts the replica copy of the failed partition: the
    tree and its allocator operate on the adopted region (whose bump word
    carries the dead primary's allocation high-water mark), while RPC CPU
    time is charged to the new host's workers.
    """
    from repro.nam.allocator import PageAllocator

    def hook(logical_id: int, host: MemoryServer, region) -> None:
        if logical_id not in roots:
            return
        allocator = PageAllocator.adopt(region, page_size)
        host.app[(_APP, name, logical_id)] = BLinkTree(
            LocalAccessor(
                host, region=region, logical_id=logical_id, allocator=allocator
            ),
            LocalRootRef(host, roots[logical_id], region=region),
        )
        for request_type, handler in _HANDLERS.items():
            host.register_handler(request_type, handler)

    return hook


# --------------------------------------------------------------------------- #
# the index                                                                     #
# --------------------------------------------------------------------------- #

class CoarseGrainedIndex(DistributedIndex):
    """One B-link tree per memory server, accessed via two-sided RPC."""

    design = "coarse-grained"

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
        pairs: Sequence[Tuple[int, int]],
        partitioner: Optional[Partitioner] = None,
        key_space: Optional[int] = None,
        **_options: Any,
    ) -> "CoarseGrainedIndex":
        """Partition *pairs*, bulk-load one local tree per memory server,
        and register the RPC handlers.

        Without an explicit *partitioner*, keys are range-partitioned
        uniformly over ``[0, key_space)`` (*key_space* defaults to
        ``max key + 1``).
        """
        if partitioner is None:
            if key_space is None:
                key_space = (pairs[-1][0] + 1) if pairs else cluster.num_memory_servers
            partitioner = RangePartitioner.uniform(
                key_space, cluster.num_memory_servers
            )
        if partitioner.num_servers != cluster.num_memory_servers:
            raise ConfigurationError(
                "partitioner server count does not match the cluster"
            )
        buckets: Dict[int, list] = defaultdict(list)
        for key, value in pairs:
            buckets[partitioner.server_for_key(key)].append((key, value))

        sink = cluster.direct_sink()
        fill = cluster.config.tree.bulk_fill
        roots: Dict[int, RootLocation] = {}
        for server in cluster.memory_servers:
            server_id = server.server_id
            root_location = cluster.alloc_control_word(server_id)
            result = bulk_load(
                buckets.get(server_id, []),
                sink,
                place_leaf=lambda i, s=server_id: s,
                place_inner=lambda level, i, s=server_id: s,
                fill=fill,
            )
            cluster.write_control_word(
                server_id, root_location.offset, result.root_raw
            )
            roots[server_id] = root_location
            server.app[(_APP, name, server_id)] = BLinkTree(
                LocalAccessor(server), LocalRootRef(server, root_location)
            )
            for request_type, handler in _HANDLERS.items():
                server.register_handler(request_type, handler)

        index = cls(cluster, name, partitioner, roots)
        cluster.catalog.register(
            IndexDescriptor(
                name=name,
                design=cls.design,
                roots=roots,
                partitioner=partitioner,
            )
        )
        if cluster.replication is not None:
            cluster.replication.register_promotion_hook(
                _promotion_hook(name, roots, cluster.config.tree.page_size)
            )
        return index

    def session(self, compute_server: ComputeServer) -> "CoarseGrainedSession":
        return CoarseGrainedSession(self, compute_server)

    def local_tree(self, server_id: int) -> BLinkTree:
        """The server-resident tree of one partition (tests/validation).

        Routed: after a failover the tree lives on the promoted host."""
        replication = self.cluster.replication
        if replication is not None:
            host_id = replication.primary_host_id(server_id)
            return _tree(self.cluster.memory_server(host_id), self.name, server_id)
        return _tree(self.cluster.memory_server(server_id), self.name, server_id)

    def start_gc(self, epoch_s: float = 0.05):
        """Launch one epoch garbage collector per memory server
        (Section 3.2: GC 'runs on each memory server'). The sweeper is a
        background thread of the server, not one of its RPC workers.
        Returns the collectors."""
        from repro.index.gc import EpochGarbageCollector

        collectors = []
        for server_id in self.roots:
            collector = EpochGarbageCollector(
                self.cluster.sim, self.local_tree(server_id), epoch_s=epoch_s
            )
            collector.start()
            collectors.append(collector)
        return collectors


class CoarseGrainedSession(IndexSession):
    """Client-side handle: every operation is one RPC (plus fan-out merges).

    When the cluster is co-located and the owning memory server lives on
    this compute server's machine, operations run the traversal *locally*
    in the client thread instead of paying an RPC — the shared-nothing
    locality benefit of Appendix A.3.
    """

    def __init__(self, index: CoarseGrainedIndex, compute_server: ComputeServer) -> None:
        self.index = index
        self.compute_server = compute_server
        # Each session models one client thread's reliable connections; the
        # count drives the per-client receive-queue polling cost when SRQs
        # are disabled (Section 3.2).
        for server in index.cluster.memory_servers:
            server.connected_qps += 1
        self._local_trees: Dict[int, BLinkTree] = {}
        if index.cluster.config.colocated:
            for server in index.cluster.memory_servers:
                if server.machine is compute_server.machine:
                    self._local_trees[server.server_id] = ClientLocalTree._build(
                        index, server, compute_server
                    )

    # -- plumbing ---------------------------------------------------------------

    def _call(self, server_id: int, request) -> Generator[Any, Any, Any]:
        return self.compute_server.qp(server_id).call(
            request, request.wire_bytes, tenant=self.tenant
        )

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        server_id = self.index.partitioner.server_for_key(key)
        local = self._local_trees.get(server_id)
        if local is not None:
            return (yield from local.lookup(key))
        response = yield from self._call(
            server_id, rpc.PointLookupRequest(self.index.name, key, partition=server_id)
        )
        return list(response.values)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        server_ids = self.index.partitioner.servers_for_range(low, high)
        if not server_ids:
            return []

        def one_partition(server_id: int):
            local = self._local_trees.get(server_id)
            if local is not None:
                pairs = yield from local.range_scan(low, high)
                return pairs
            response = yield from self._call(
                server_id, rpc.RangeScanRequest(self.index.name, low, high, partition=server_id)
            )
            return list(response.pairs)

        if len(server_ids) == 1:
            return (yield from one_partition(server_ids[0]))
        sim = self.compute_server.sim
        calls = [sim.process(one_partition(server_id)) for server_id in server_ids]
        partials = yield sim.all_of(calls)
        merged: List[Tuple[int, int]] = []
        for partial in partials:
            merged.extend(partial)
        merged.sort(key=lambda pair: pair[0])
        return merged

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        server_id = self.index.partitioner.server_for_key(key)
        local = self._local_trees.get(server_id)
        if local is not None:
            yield from local.insert(key, value)
            return
        yield from self._call(server_id, rpc.InsertRequest(self.index.name, key, value, partition=server_id))

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        server_id = self.index.partitioner.server_for_key(key)
        local = self._local_trees.get(server_id)
        if local is not None:
            return (yield from local.update(key, value))
        response = yield from self._call(
            server_id, rpc.UpdateRequest(self.index.name, key, value, partition=server_id)
        )
        return response.ok

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        server_id = self.index.partitioner.server_for_key(key)
        local = self._local_trees.get(server_id)
        if local is not None:
            return (yield from local.delete(key))
        response = yield from self._call(
            server_id, rpc.DeleteRequest(self.index.name, key, partition=server_id)
        )
        return response.ok


class ClientLocalTree:
    """Factory for co-located direct access (Appendix A.3).

    A compute thread on the same physical machine as the memory server can
    traverse the partition tree through plain local memory accesses — no
    RPC, no NIC. We model this with the local-fast-path queue pair: reads
    cost local memory latency/bandwidth and the memory server's CPU workers
    are not involved.
    """

    @staticmethod
    def _build(
        index: CoarseGrainedIndex, server: MemoryServer, compute_server: ComputeServer
    ) -> BLinkTree:
        from repro.index.accessors import RemoteAccessor, RemoteRootRef

        accessor = RemoteAccessor(
            compute_server, index.cluster.config, alloc_server_id=server.server_id
        )
        root = RemoteRootRef(compute_server, index.roots[server.server_id])
        return BLinkTree(accessor, root)
