"""Online tree-integrity verifier (the chaos-test oracle).

:func:`check_tree` walks one B-link tree level by level and checks every
structural invariant the designs rely on:

* per level: keys sorted, inside the node's ``[low fence, high key)``
  range, sibling chain strictly ordered (no cycle) with the rightmost high
  key at ``MAX_KEY``, every node at its expected level, and every child
  pointer of the level above on the chain; every leaf head pointer names
  a head node;
* version words even (unlocked) — a lock stranded by a crashed client is
  lease-stolen during the walk (and reported) rather than wedging it.

It is a generator returning a :class:`VerifyReport`: ``cluster.execute``
runs it over a client tree handle, :func:`~repro.btree.inmemory.drive`
over an in-memory tree. :func:`verify_index` runs it over every tree of
an index *through the simulated fabric* — the same one-sided READs a
client issues, so it composes with a still-running workload — and adds:

* replica convergence: every live backup byte-identical to its primary;
* the decode memo: every master whose version is its page's current word
  is what those bytes decode to, live pairs included — the oracle for a
  writer that published a node its page does not hold;
* orphan accounting: allocated pages reached from no root or head-node
  chain, counted in ``report.unreachable_pages`` and never a violation,
  since a root split legitimately abandons its old control word. It is
  skipped when the catalog holds other indexes, whose pages look like
  leaks.

Chaos tests run it after :meth:`FaultInjector.quiesce` so retries are not
themselves faulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set

from repro.btree.algorithm import BLinkTree
from repro.btree.node import MAX_KEY, Node, is_tombstoned
from repro.btree.pointers import RemotePointer, is_null
from repro.errors import ReproError
from repro.nam.allocator import ALLOC_WORD_OFFSET

__all__ = ["VerifyReport", "check_tree", "verify_index"]


@dataclass
class VerifyReport:
    """Outcome of one :func:`check_tree` or :func:`verify_index` run."""

    design: str
    index_name: str
    trees: int = 0
    nodes: int = 0
    leaves: int = 0
    head_nodes: int = 0
    entries: int = 0
    tombstones: int = 0
    #: Locks found stranded (and lease-stolen) during the walk.
    stranded_locks: int = 0
    #: Allocated pages not reached from any root or head-node chain
    #: (-1 when the accounting was skipped — multiple indexes share the
    #: cluster, so unreached pages cannot be attributed).
    unreachable_pages: int = -1
    #: Backup copies byte-compared against their primaries.
    replicas_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        orphans = (
            "skipped" if self.unreachable_pages < 0 else str(self.unreachable_pages)
        )
        return (
            f"[verify {self.index_name}/{self.design}] {status}: "
            f"{self.trees} trees, {self.nodes} nodes ({self.leaves} leaves, "
            f"{self.head_nodes} heads), {self.entries} entries "
            f"(+{self.tombstones} tombstones), "
            f"{self.stranded_locks} stranded locks stolen, "
            f"orphans={orphans}, {self.replicas_checked} replicas checked"
        )


def check_tree(
    tree: BLinkTree,
    label: str = "tree",
    report: Optional[VerifyReport] = None,
    seen: Optional[Set[int]] = None,
) -> Generator[Any, Any, VerifyReport]:
    """Walk one B-link tree; returns *report* (a new one by default) with
    each violation appended under *label*, never raising mid-walk.
    :func:`verify_index` passes one report and one *seen* set (the pages
    walked so far) for all of an index's trees, so a page that two trees
    reach is reported too."""
    if report is None:
        report = VerifyReport(design="b-link", index_name=label)
    if seen is None:
        seen = set()
    bad = report.violations
    steals_before = getattr(tree.acc, "lock_steals", 0)
    try:
        root_ptr = yield from tree.root.refresh()
    except ReproError as exc:  # pragma: no cover - diagnostic path
        bad.append(f"{label}: root pointer unreadable: {exc!r}")
        return report
    root = yield from tree._read_unlocked(root_ptr)
    report.trees += 1
    leftmost = root_ptr
    head_pointers: Set[int] = set()
    # Child pointers of the level above: each must lie on the sibling
    # chain walked next. (A half-split sibling is on the chain before its
    # separator exists, and GC compacts leaves in place, so this holds on
    # a live tree.) A separator installed into another partition's inner
    # level breaks exactly this, and nothing else the walk checks.
    parent_children: Set[int] = set()
    for level in range(root.level, -1, -1):
        node = yield from tree._read_unlocked(leftmost)
        if node.level != level:
            bad.append(
                f"{label}: expected level {level} at {leftmost:#x}, "
                f"found {node.level}"
            )
            return report
        next_leftmost = node.values[0] if node.is_inner and node.count else None
        previous_high = 0
        raw_ptr = leftmost
        chain: Set[int] = set()
        children: Set[int] = set()
        while True:
            if raw_ptr in seen:
                bad.append(f"{label}: sibling cycle through {raw_ptr:#x}")
                return report
            seen.add(raw_ptr)
            chain.add(raw_ptr)
            if node.is_inner:
                children.update(node.values)
            report.nodes += 1
            if node.version & 1:
                bad.append(f"{label}: odd (locked) version at {raw_ptr:#x}")
            if node.keys != sorted(node.keys):
                bad.append(f"{label}: unsorted keys at level {level}")
            if node.keys and node.keys[0] < previous_high:
                bad.append(
                    f"{label}: key below low fence at level {level}: "
                    f"{node.keys[0]} < {previous_high}"
                )
            if any(k >= node.high_key for k in node.keys):
                bad.append(f"{label}: key >= high fence at level {level}")
            if node.is_leaf:
                report.leaves += 1
                report.entries += sum(
                    0 if is_tombstoned(v) else 1 for v in node.values
                )
                report.tombstones += sum(
                    1 if is_tombstoned(v) else 0 for v in node.values
                )
                if not is_null(node.head):
                    head_pointers.add(node.head)
            previous_high = node.high_key
            if is_null(node.right):
                break
            raw_ptr = node.right
            node = yield from tree._read_unlocked(raw_ptr)
            if node.level != level:
                bad.append(
                    f"{label}: level {node.level} node in level-{level} "
                    f"sibling chain at {raw_ptr:#x}"
                )
                return report
        if previous_high != MAX_KEY:
            bad.append(
                f"{label}: rightmost node at level {level} has high key "
                f"{previous_high}, expected MAX_KEY"
            )
        for stray in sorted(parent_children - chain):
            bad.append(
                f"{label}: level-{level + 1} child pointer {stray:#x} is not "
                f"on the level-{level} sibling chain"
            )
        parent_children = children
        if level > 0:
            if next_leftmost is None:
                bad.append(f"{label}: inner node at level {level} has no children")
                return report
            leftmost = next_leftmost
    # Head-node chains hang off leaves; read each once so the pages are
    # checked (type + lock state) and counted reachable.
    for head_ptr in head_pointers:
        if head_ptr in seen:
            continue
        seen.add(head_ptr)
        node = yield from tree._read_unlocked(head_ptr)
        report.nodes += 1
        report.head_nodes += 1
        if not node.is_head:
            bad.append(f"{label}: leaf head pointer {head_ptr:#x} is not a head node")
    report.stranded_locks += getattr(tree.acc, "lock_steals", 0) - steals_before
    return report


#: The decoded fields a memo master must share with its page's bytes.
_NODE_FIELDS = tuple(name for name in Node.__slots__ if name != "live")


def _check_memo(cluster, report: VerifyReport) -> None:
    """Report every memo master whose version equals its page's current
    word but whose fields — or, once a scan built them, live pairs — are
    not what those bytes decode to. An older master is no violation: its
    next read refuses it by version."""
    for raw_ptr, master in cluster.decode_memo.items():
        pointer = RemotePointer.from_raw(raw_ptr)
        data = cluster.page_image(pointer.server_id, pointer.offset)
        if data is None or int.from_bytes(data[:8], "little") != master.version:
            continue
        truth = Node.from_bytes(data)
        if any(getattr(master, name) != getattr(truth, name) for name in _NODE_FIELDS) or (
            master.live is not None and master.live != truth.build_live()
        ):
            report.violations.append(
                f"stale memo master at {raw_ptr:#x} (version {master.version})"
            )


def _orphan_accounting(
    cluster, index, reached: Set[int], report: VerifyReport
) -> None:
    if tuple(cluster.catalog.names()) != (index.name,):
        return  # other indexes own pages we cannot attribute
    page_size = cluster.config.tree.page_size
    reached_by_server: Dict[int, Set[int]] = {}
    for raw_ptr in reached:
        pointer = RemotePointer.from_raw(raw_ptr)
        reached_by_server.setdefault(pointer.server_id, set()).add(pointer.offset)
    root_words: Dict[int, Set[int]] = {}
    descriptor = cluster.catalog.lookup(index.name)
    for location in descriptor.roots.values():
        root_words.setdefault(location.server_id, set()).add(
            location.offset - location.offset % page_size
        )
    unreachable = 0
    replication = cluster.replication
    for server in cluster.memory_servers:
        logical = server.server_id
        accounted = set(reached_by_server.get(logical, ()))
        accounted |= root_words.get(logical, set())
        if replication is not None:
            _host, region = replication.route(logical)
        else:
            region = server.region
        # Reading the allocator's high-water word straight off the region is
        # the point of the orphan scan (it audits the accessors' product
        # from outside), so the accessor-only rule is waived here.
        high_water = region.read_u64(ALLOC_WORD_OFFSET)  # namsan: allow[N03]
        for offset in range(page_size, high_water, page_size):
            if offset not in accounted:
                unreachable += 1
    report.unreachable_pages = unreachable


def verify_index(cluster, index) -> VerifyReport:
    """Verify *index*'s structural and replication invariants.

    Runs :func:`check_tree` over each of the index's client trees through
    the simulator (see module docstring) and returns one
    :class:`VerifyReport`; ``report.ok`` is the one-line oracle chaos
    tests assert. The walk issues real simulated traffic, so run it after
    the workload (or after :meth:`FaultInjector.quiesce` under chaos) to
    keep measurements clean.
    """
    servers = cluster.compute_servers
    compute_server = servers[0] if servers else cluster.new_compute_server()
    report = VerifyReport(design=index.design, index_name=index.name)
    reached: Set[int] = set()
    _check_memo(cluster, report)
    # The oracle checks *bytes*, so here — and nowhere else — the decode
    # memo is bypassed: a page rewritten in place under an unchanged version
    # word must not be served from its memoized decode
    # (tests/test_replication.py::test_verifier_detects_corruption).
    compute_server.decode_memo.clear()

    def walk_all() -> Generator[Any, Any, None]:
        for label, tree in index.client_trees(compute_server):
            yield from check_tree(tree, label, report, reached)

    cluster.execute(walk_all())
    _orphan_accounting(cluster, index, reached, report)
    if cluster.replication is not None:
        for server in cluster.memory_servers:
            divergences = cluster.replication.replica_divergences(server.server_id)
            copies = cluster.replication.replica_set(server.server_id)
            live = sum(1 for copy in copies if copy.live)
            report.replicas_checked += max(0, live - 1)
            for message in divergences:
                report.violations.append(f"replica divergence: {message}")
    if report.violations and cluster.obs is not None:
        # Structural damage found: freeze the flight recorder so the
        # recent ops/faults leading up to it survive for forensics.
        cluster.obs.flight.dump(
            "verifier-failure", detail=list(report.violations[:8])
        )
    return report
