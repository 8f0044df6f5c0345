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
  alloc + WRITE) and ships the separator to the partition owner in an
  ``install_separator`` tree call, which the owner applies to its inner
  levels (Section 5.2);
* deletes: traversal RPC + one-sided tombstoning.

This combines the low traversal latency of RPCs with the aggregated leaf
bandwidth of all servers — which is why the hybrid is the paper's most
robust design (Section 6.1). Both halves live in
:mod:`repro.index.partitioned`; this module is the seam between them.

Hybrid sessions leave :class:`~repro.config.CacheConfig` unread, as
coarse-grained ones do: a client reads only leaves one-sided, and leaves
are never cached, while the partition owners serve the upper levels from
their own memory (docs/caching.md).
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.btree.algorithm import BLinkTree
from repro.btree.node import Node
from repro.index.accessors import RemoteAccessor, RemoteRootRef
from repro.index.partitioned import PartitionedIndex, PartitionedSession, client_tree
from repro.nam.compute_server import ComputeServer
from repro.nam.memory_server import MemoryServer
from repro.nam.rpc import RPC_HEADER_BYTES, TreeCall

__all__ = ["HybridIndex", "HybridSession"]

_APP = "hybrid"


# --------------------------------------------------------------------------- #
# server-side RPC handlers (inner levels only)                                 #
# --------------------------------------------------------------------------- #

def _traverse_reply(node: Node, key: int) -> Tuple[int, int]:
    return node.find_child(key), RPC_HEADER_BYTES + 8


def _handle_traverse(server: MemoryServer, call: TreeCall):
    """The leaf pointer under the key (one pointer on the wire). The
    descent to level 1 answers it itself, so the worker resumes the
    descent directly, with no frame of this handler on its chain."""
    (key,) = call.args
    tree = server.app[_APP, call.index, call.partition]
    return tree._descend_from(0, None, key, 1, _traverse_reply)


def _handle_install_separator(server: MemoryServer, call: TreeCall):
    tree = server.app[_APP, call.index, call.partition]
    yield from tree._install_separator(1, *call.args)
    return None, RPC_HEADER_BYTES


# --------------------------------------------------------------------------- #
# the index                                                                     #
# --------------------------------------------------------------------------- #

class HybridIndex(PartitionedIndex):
    """Partitioned inner levels + globally scattered leaf level."""

    design = _APP
    handlers = {
        "traverse": _handle_traverse,
        "install_separator": _handle_install_separator,
    }
    # The partition owner applies every inner-level SMO of its partition, so
    # it is the one publishing the index's structure epochs.
    on_structure_change = PartitionedIndex._structure_changed

    def _placement(self) -> Callable[[int], Dict[str, Any]]:
        """Leaves and head nodes round-robin across all servers, under at
        least one inner level. Head nodes go in every
        ``TreeConfig.head_node_interval`` leaves; 0 disables them."""
        num_servers = self.cluster.num_memory_servers
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
        return HybridSession(self, compute_server)

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
        self._partition = partition

    def _find_leaf(
        self, key: int, reply: Optional[Callable[[Node, int], Any]] = None
    ) -> Generator[Any, Any, Any]:
        """The traversal RPC, then the leaf read: ``(raw_ptr, node)``, or
        ``reply(node, key)`` given *reply*, on both ways out."""
        raw_ptr = yield from self._call(self._partition, "traverse", key)
        # The leaf may have split since the owner answered, so the
        # move-right step is mandatory (Section 5.2). The first read opens
        # no span step: the RPC is the traversal. It is _read_unlocked's
        # body, as in _descend_from: no frame of its own.
        node = yield from self.acc.read_node(raw_ptr)
        if node.version & 1:
            node = yield from self._await_unlocked(raw_ptr, node)
        if key < node.high_key and not node.level:
            # Where _descend_from would take no step.
            if reply is None:
                return raw_ptr, node
            return reply(node, key)
        return (yield from self._descend_from(raw_ptr, node, key, 0, reply))

    def _install_separator(
        self, level: int, sep_key: int, new_child: int, split_child: int
    ) -> Generator[Any, Any, None]:
        return self._call(
            self._partition, "install_separator", sep_key, new_child, split_child
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
