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

from repro.btree.node import Node
from repro.index.partitioned import PartitionedIndex, PartitionedSession, client_tree
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer
from repro.nam.rpc import RPC_HEADER_BYTES, TreeCall

__all__ = ["CoarseGrainedIndex", "CoarseGrainedSession"]

_APP = "coarse-grained"


# --------------------------------------------------------------------------- #
# server-side RPC handlers                                                     #
# --------------------------------------------------------------------------- #

def _lookup_reply(node: Node, key: int) -> Tuple[List[int], int]:
    values = node.leaf_matches(key)
    return values, RPC_HEADER_BYTES + 8 * len(values)


def _handle_lookup(server: MemoryServer, call: TreeCall):
    """The live payloads under the key. The leaf descent answers them
    itself, so the worker resumes the descent directly, with no frame of
    this handler on its chain."""
    (key,) = call.args
    return server.app[_APP, call.index, call.partition]._find_leaf(key, _lookup_reply)


def _handle_range_scan(server: MemoryServer, call: TreeCall):
    tree = server.app[_APP, call.index, call.partition]
    pairs = yield from tree.range_scan(*call.args)
    return pairs, RPC_HEADER_BYTES + 16 * len(pairs)


def _handle_insert(server: MemoryServer, call: TreeCall):
    yield from server.app[_APP, call.index, call.partition].insert(*call.args)
    return None, RPC_HEADER_BYTES


def _handle_update(server: MemoryServer, call: TreeCall):
    found = yield from server.app[_APP, call.index, call.partition].update(*call.args)
    return found, RPC_HEADER_BYTES


def _handle_delete(server: MemoryServer, call: TreeCall):
    found = yield from server.app[_APP, call.index, call.partition].delete(*call.args)
    return found, RPC_HEADER_BYTES


# --------------------------------------------------------------------------- #
# the index                                                                     #
# --------------------------------------------------------------------------- #

class CoarseGrainedIndex(PartitionedIndex):
    """One B-link tree per memory server, accessed via two-sided RPC."""

    design = _APP
    handlers = {
        "lookup": _handle_lookup,
        "range_scan": _handle_range_scan,
        "insert": _handle_insert,
        "update": _handle_update,
        "delete": _handle_delete,
    }

    def _placement(self) -> Callable[[int], Dict[str, Any]]:
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
    operations is one tree call to that partition, answered by the
    handler's result."""

    def __init__(self, session: "CoarseGrainedSession", partition: int) -> None:
        self._call = session._call
        self._partition = partition

    def lookup(self, key: int) -> Generator[Any, Any, List[int]]:
        return self._call(self._partition, "lookup", key)

    def range_scan(
        self, low: int, high: int
    ) -> Generator[Any, Any, List[Tuple[int, int]]]:
        return self._call(self._partition, "range_scan", low, high)

    def insert(self, key: int, value: int) -> Generator[Any, Any, None]:
        return self._call(self._partition, "insert", key, value)

    def update(self, key: int, value: int) -> Generator[Any, Any, bool]:
        return self._call(self._partition, "update", key, value)

    def delete(self, key: int) -> Generator[Any, Any, bool]:
        return self._call(self._partition, "delete", key)


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
