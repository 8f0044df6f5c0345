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
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.node import Node
from repro.index.accessors import RemoteAccessor, RemoteRootRef
from repro.index.partitioned import PartitionedIndex, PartitionedSession, client_tree
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

            attach_cache(session._trees.values(), self, compute_server)
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
    """One partition's leaf chain over one-sided verbs, its inner levels
    behind the owner's RPCs.

    The leaf protocol is Design 2's. What differs is the way to the leaf —
    a traversal RPC to *this* partition, then move right — and the way
    back up: the separator of a leaf split goes to the partition the leaf
    was reached through, whatever the separator key would hash to. The
    root word is the partition's; no operation reads it.
    """

    def __init__(
        self, accessor: RemoteAccessor, session: "HybridSession", partition: int
    ) -> None:
        index = session.index
        super().__init__(
            accessor,
            RemoteRootRef(session.compute_server, index.roots[partition]),
            use_head_nodes=index.use_head_nodes,
            prefetch_window=index.cluster.config.tree.prefetch_window,
        )
        self._call = session._call
        self._index = index.name
        self._partition = partition

    def _find_leaf(self, key: int) -> Generator[Any, Any, Tuple[int, Node]]:
        partition = self._partition
        response = yield from self._call(
            partition, rpc.TraverseRequest(self._index, key, partition=partition)
        )
        # The leaf may have split since the owner answered, so the
        # move-right step is mandatory (Section 5.2). The first read opens
        # no span step: the RPC is the traversal. It is _read_unlocked's
        # body, as in _descend_from: no frame of its own.
        raw_ptr = response.raw
        node = yield from self.acc.read_node(raw_ptr)
        if node.version & 1:
            node = yield from self._await_unlocked(raw_ptr, node)
        return (yield from self._descend_from(raw_ptr, node, key, 0))

    def _install_separator(
        self, level: int, sep_key: int, new_child: int, split_child: int
    ) -> Generator[Any, Any, None]:
        partition = self._partition
        return self._call(
            partition,
            rpc.InstallSeparatorRequest(
                self._index, sep_key, new_child, split_child, partition=partition
            ),
        )


class HybridSession(PartitionedSession):
    """Client-side handle: traversal RPCs + one-sided leaf access — one
    leaf tree per partition, all over one accessor (one allocation
    round-robin per client thread)."""

    def __init__(self, index: HybridIndex, compute_server: ComputeServer) -> None:
        super().__init__(index, compute_server)
        accessor = RemoteAccessor(compute_server, index.cluster.config)
        for partition in index.roots:
            self._trees[partition] = _HybridLeafTree(accessor, self, partition)
