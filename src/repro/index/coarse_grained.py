"""Design 1: coarse-grained distribution, two-sided access (Section 3).

The key space is partitioned (range- or hash-based) across the memory
servers; each server holds a complete B-link tree for its partition,
co-locating inner and leaf nodes (the mechanism is
:mod:`repro.index.partitioned`; this module is what Design 1 adds to it).
Compute servers never touch pages directly — every operation is an RPC
over SEND/RECEIVE handled by a memory-server worker, which traverses its
local tree under optimistic lock coupling (Listings 1 and 3).

Routing (client side, :class:`~repro.index.partitioned.PartitionedSession`):

* point lookups / inserts / deletes go to the single owning server;
* range scans go to every server whose partition intersects the range —
  all of them under hash partitioning — issued in parallel and merged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.index.partitioned import PartitionedIndex, PartitionedSession, client_tree
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


class _RpcTree:
    """One partition's tree as its owner serves it: each of the five
    operations is one RPC to that partition."""

    def __init__(self, session: "CoarseGrainedSession", partition: int) -> None:
        self._call = session._call
        self._index = session.index.name
        self._partition = partition

    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        partition = self._partition
        response = yield from self._call(
            partition, rpc.PointLookupRequest(self._index, key, partition=partition)
        )
        return list(response.values)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        partition = self._partition
        response = yield from self._call(
            partition, rpc.RangeScanRequest(self._index, low, high, partition=partition)
        )
        return list(response.pairs)

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        partition = self._partition
        yield from self._call(
            partition, rpc.InsertRequest(self._index, key, value, partition=partition)
        )

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        partition = self._partition
        response = yield from self._call(
            partition, rpc.UpdateRequest(self._index, key, value, partition=partition)
        )
        return response.ok

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        partition = self._partition
        response = yield from self._call(
            partition, rpc.DeleteRequest(self._index, key, partition=partition)
        )
        return response.ok


class CoarseGrainedSession(PartitionedSession):
    """Client-side handle: every operation is one RPC (plus fan-out merges).

    When the cluster is co-located and the owning memory server lives on
    this compute server's machine, the partition's handle is a one-sided
    tree instead: operations run the traversal *locally* in the client
    thread and pay no RPC — the shared-nothing locality benefit of
    Appendix A.3. A compute thread on the same physical machine reaches
    the partition tree through the local-fast-path queue pair: reads cost
    local memory latency/bandwidth and the memory server's CPU workers
    are not involved.
    """

    def __init__(self, index: CoarseGrainedIndex, compute_server: ComputeServer) -> None:
        super().__init__(index, compute_server)
        cluster = index.cluster
        for server in cluster.memory_servers:
            partition = server.server_id
            if cluster.config.colocated and server.machine is compute_server.machine:
                self._trees[partition] = client_tree(
                    cluster,
                    compute_server,
                    index.roots[partition],
                    alloc_server_id=partition,
                )
            else:
                self._trees[partition] = _RpcTree(self, partition)
