"""Design 1: coarse-grained distribution, two-sided access (Section 3).

The key space is partitioned (range- or hash-based) across the memory
servers; each server holds a complete B-link tree for its partition,
co-locating inner and leaf nodes (the mechanism is
:mod:`repro.index.partitioned`; this module is what Design 1 adds to it).
Compute servers never touch pages directly — every operation is an RPC
over SEND/RECEIVE handled by a memory-server worker, which traverses its
local tree under optimistic lock coupling (Listings 1 and 3).

Routing (client side):

* point lookups / inserts / deletes go to the single owning server;
* range scans go to every server whose partition intersects the range —
  all of them under hash partitioning — issued in parallel and merged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.btree.algorithm import BLinkTree
from repro.index.partitioned import (
    PartitionedIndex,
    PartitionedSession,
    client_tree,
    merge_partials,
)
from repro.nam import rpc
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer

__all__ = ["CoarseGrainedIndex", "CoarseGrainedSession"]

_APP = "coarse-grained"


# --------------------------------------------------------------------------- #
# server-side RPC handlers                                                     #
# --------------------------------------------------------------------------- #

def _handle_point_lookup(server: MemoryServer, msg: rpc.PointLookupRequest):
    values = yield from server.app[_APP, msg.index, msg.partition].lookup(msg.key)
    response = rpc.ValueResponse(tuple(values))
    return response, response.wire_bytes


def _handle_range_scan(server: MemoryServer, msg: rpc.RangeScanRequest):
    pairs = yield from server.app[_APP, msg.index, msg.partition].range_scan(
        msg.low, msg.high
    )
    response = rpc.PairsResponse(tuple(pairs))
    return response, response.wire_bytes


def _handle_insert(server: MemoryServer, msg: rpc.InsertRequest):
    yield from server.app[_APP, msg.index, msg.partition].insert(msg.key, msg.value)
    response = rpc.AckResponse()
    return response, response.wire_bytes


def _handle_update(server: MemoryServer, msg: rpc.UpdateRequest):
    found = yield from server.app[_APP, msg.index, msg.partition].update(
        msg.key, msg.value
    )
    response = rpc.AckResponse(ok=found)
    return response, response.wire_bytes


def _handle_delete(server: MemoryServer, msg: rpc.DeleteRequest):
    found = yield from server.app[_APP, msg.index, msg.partition].delete(msg.key)
    response = rpc.AckResponse(ok=found)
    return response, response.wire_bytes


# --------------------------------------------------------------------------- #
# the index                                                                     #
# --------------------------------------------------------------------------- #

class CoarseGrainedIndex(PartitionedIndex):
    """One B-link tree per memory server, accessed via two-sided RPC."""

    design = _APP
    handlers = {
        rpc.PointLookupRequest: _handle_point_lookup,
        rpc.RangeScanRequest: _handle_range_scan,
        rpc.InsertRequest: _handle_insert,
        rpc.UpdateRequest: _handle_update,
        rpc.DeleteRequest: _handle_delete,
    }

    def _placement(self, **_options: Any) -> Callable[[int], Dict[str, Any]]:
        """Leaves stay with the rest of their partition's tree, on its owner."""
        return lambda owner: {"place_leaf": lambda i: owner}

    def session(self, compute_server: ComputeServer) -> "CoarseGrainedSession":
        return CoarseGrainedSession(self, compute_server)

    local_tree = PartitionedIndex.partition_tree

    def start_gc(self, epoch_s: float = 0.05):
        """Launch one epoch garbage collector per memory server
        (Section 3.2: GC 'runs on each memory server'). The sweeper is a
        background thread of the server, not one of its RPC workers.
        Returns the collectors."""
        return self._start_collectors(
            [self.local_tree(server_id) for server_id in self.roots], epoch_s
        )


class CoarseGrainedSession(PartitionedSession):
    """Client-side handle: every operation is one RPC (plus fan-out merges).

    When the cluster is co-located and the owning memory server lives on
    this compute server's machine, operations run the traversal *locally*
    in the client thread instead of paying an RPC — the shared-nothing
    locality benefit of Appendix A.3. A compute thread on the same
    physical machine reaches the partition tree through the
    local-fast-path queue pair: reads cost local memory latency/bandwidth
    and the memory server's CPU workers are not involved.
    """

    def __init__(self, index: CoarseGrainedIndex, compute_server: ComputeServer) -> None:
        super().__init__(index, compute_server)
        self._local_trees: Dict[int, BLinkTree] = {}
        if index.cluster.config.colocated:
            for server in index.cluster.memory_servers:
                if server.machine is compute_server.machine:
                    server_id = server.server_id
                    self._local_trees[server_id] = client_tree(
                        index.cluster,
                        compute_server,
                        index.roots[server_id],
                        alloc_server_id=server_id,
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
        return merge_partials(partials)

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
