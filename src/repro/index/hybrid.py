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
robust design (Section 6.1). Both halves live in
:mod:`repro.index.partitioned`; this module is the seam between them.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.index.accessors import RemoteAccessor
from repro.index.partitioned import (
    PartitionedIndex,
    PartitionedSession,
    client_tree,
    merge_partials,
)
from repro.nam import rpc
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer

__all__ = ["HybridIndex", "HybridSession"]

_APP = "hybrid"


# --------------------------------------------------------------------------- #
# server-side RPC handlers (inner levels only)                                 #
# --------------------------------------------------------------------------- #

def _handle_traverse(server: MemoryServer, msg: rpc.TraverseRequest):
    tree = server.app[_APP, msg.index, msg.partition]
    _ptr, node = yield from tree._descend_to_level(msg.key, 1)
    response = rpc.PointerResponse(node.find_child(msg.key))
    return response, response.wire_bytes


def _handle_install_separator(server: MemoryServer, msg: rpc.InstallSeparatorRequest):
    tree = server.app[_APP, msg.index, msg.partition]
    yield from tree._install_separator(
        1, msg.separator, msg.new_child, msg.split_child
    )
    response = rpc.AckResponse()
    return response, response.wire_bytes


# --------------------------------------------------------------------------- #
# the index                                                                     #
# --------------------------------------------------------------------------- #

class HybridIndex(PartitionedIndex):
    """Partitioned inner levels + globally scattered leaf level."""

    design = _APP
    handlers = {
        rpc.TraverseRequest: _handle_traverse,
        rpc.InstallSeparatorRequest: _handle_install_separator,
    }
    # The partition owner applies every inner-level SMO of its partition, so
    # it is the one publishing structure epochs for the client-side caches
    # (see docs/caching.md).
    on_structure_change = PartitionedIndex._structure_changed

    def _placement(
        self, head_interval: Optional[int] = None, **_options: Any
    ) -> Callable[[int], Dict[str, Any]]:
        """Leaves and head nodes round-robin across all servers, under at
        least one inner level. *head_interval* overrides
        ``TreeConfig.head_node_interval``; 0 disables head nodes."""
        num_servers = self.cluster.num_memory_servers
        if head_interval is None:
            head_interval = self.cluster.config.tree.head_node_interval
        self.use_head_nodes = head_interval > 0
        # One global counter so leaves of *all* partitions interleave evenly
        # across servers (the property that defeats attribute-value skew).
        leaf_counter = count()
        head_counter = count(1)
        keywords = {
            "place_leaf": lambda i: next(leaf_counter) % num_servers,
            "place_head": lambda i: next(head_counter) % num_servers,
            "head_interval": head_interval,
            "min_height": 2,
        }
        return lambda owner: keywords

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

    inner_tree = PartitionedIndex.partition_tree

    def gc_tree(self, compute_server: ComputeServer, server_id: int) -> BLinkTree:
        """A one-sided tree handle over partition *server_id* for the
        global leaf garbage collector (Section 5.2).

        Inner pages are ordinary registered memory, so the GC thread on a
        compute server can descend them with one-sided READs even though
        regular clients go through traversal RPCs.
        """
        return client_tree(self.cluster, compute_server, self.roots[server_id])

    def start_gc(self, compute_server: ComputeServer, epoch_s: float = 0.05):
        """Launch the global leaf garbage collectors (Section 5.2): one
        sweeper per partition chain, all running on *compute_server*.
        Returns the collectors."""
        return self._start_collectors(
            [self.gc_tree(compute_server, server_id) for server_id in self.roots],
            epoch_s,
        )


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


class HybridSession(PartitionedSession):
    """Client-side handle: traversal RPCs + one-sided leaf access."""

    def __init__(self, index: HybridIndex, compute_server: ComputeServer) -> None:
        super().__init__(index, compute_server)
        self._leaves = _HybridLeafTree(
            RemoteAccessor(compute_server, index.cluster.config), self
        )

    # -- RPC plumbing -------------------------------------------------------------

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
        return merge_partials(partials)

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
