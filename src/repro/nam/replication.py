"""FaRM-style primary/backup replication of memory-server state.

The paper's NAM architecture keeps index pages in plain registered memory,
so losing a memory server loses its partition (coarse-grained) or a slice
of every tree level (fine-grained/hybrid). This module adds the
availability layer the NAM line of work assumes (Binnig et al., "The End
of Slow Networks"): every *logical* memory server's region is replicated
onto the next ``replication_factor - 1`` servers in ring order, writes fan
out primary-then-backup, and a crash promotes a backup.

Key concepts
------------

Logical vs physical servers
    Remote pointers and partition maps name *logical* server ids (the ids
    assigned at cluster construction). The :class:`ReplicationManager`
    maintains an indirection table from logical id to the physical host
    currently serving it. Routing against it is pushed: a compute server
    routes its queue-pair table when it is built, and :meth:`promote`
    re-points every compute server's entry for the promoted id
    (:meth:`repro.nam.compute_server.ComputeServer.route`); no verb checks
    anything. Pointers never change on failover — only the indirection
    does.

State vs timing
    Backup copies are kept byte-converged by synchronous region mirrors
    (:meth:`repro.rdma.memory.MemoryRegion.attach_mirror`): the moment a
    primary page mutates, its backups hold the same bytes. The *cost* of
    replication is charged separately: one-sided mutations yield
    :meth:`mirror_legs` (a fabric leg from the primary host to each
    live backup plus the backup's ack) after the primary effect and before
    the client sees the completion — primary-then-backup ordering, so a
    torn failover can never observe a backup ahead of its primary. RPC
    handlers charge the same legs before acking.

Failover
    Crash detection rides PR 1's timeout/retry machinery: when a verb or
    RPC exhausts its retries, the queue pair's attempt loop asks
    :meth:`ReplicationManager.handle_failure`, which consults the catalog
    epoch and promotes the first live backup in placement order
    (:meth:`ReplicationManager.promote`); the queue pair then re-posts on
    the owning compute server's re-routed connection. Promotion hooks let the two-sided designs re-install their
    server-resident trees and handlers on the new primary. A background
    re-replication task then restores the replication factor on a spare
    host, and a restarting host is resynchronized from the current
    authority before serving again.

With ``replication_factor == 1`` no manager is created at all
(``cluster.replication is None``) and every hook in the hot path reduces
to a falsy check — simulation-identical to the unreplicated build.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import FailoverError, ReplicaDivergenceError
from repro.nam.allocator import ALLOC_WORD_OFFSET
from repro.rdma.memory import MemoryRegion

__all__ = ["ReplicaCopy", "ReplicationManager"]

#: Wire framing of one mirror leg (replica id, offset, length, checksum).
MIRROR_HEADER_BYTES = 24


def _allocated(region: MemoryRegion) -> int:
    """The bytes of *region* a state copy ships: up to its allocation
    word's high-water mark (every page and control word lies below it;
    the rest reads as zeros), or the whole region if that word was never
    set."""
    return int(region.read_u64(ALLOC_WORD_OFFSET)) or len(region)


class ReplicaCopy:
    """One physical copy of a logical server's state."""

    __slots__ = ("host_id", "region", "live")

    def __init__(self, host_id: int, region: MemoryRegion, live: bool = True) -> None:
        self.host_id = host_id
        self.region = region
        self.live = live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.live else "dead"
        return f"ReplicaCopy(host={self.host_id}, {state})"


class _ReplicaSet:
    """All copies of one logical server, in placement (ring) order.

    ``copies[primary_index]`` is the current authority; index 0 is the
    home copy (the logical server's own region).
    """

    __slots__ = ("logical_id", "copies", "primary_index")

    def __init__(self, logical_id: int, copies: List[ReplicaCopy]) -> None:
        self.logical_id = logical_id
        self.copies = copies
        self.primary_index = 0

    @property
    def primary(self) -> ReplicaCopy:
        return self.copies[self.primary_index]

    def live_backups(self) -> List[ReplicaCopy]:
        primary = self.primary
        return [c for c in self.copies if c.live and c is not primary]


class ReplicationManager:
    """Placement, routing, write fan-out and failover for one cluster.

    Created by :class:`~repro.nam.cluster.Cluster` when
    ``config.replication_factor > 1`` and shared via
    ``fabric.replication`` / ``memory_server.replication``.
    """

    def __init__(self, cluster: Any, factor: int) -> None:
        self.cluster = cluster
        #: Holds the directory epoch (Section 4.2's catalog service): the
        #: attempt loops take ``catalog.epoch`` in place to tell whether
        #: someone failed over, :meth:`promote` advances it.
        self.catalog = cluster.catalog
        self.factor = factor
        self.stats: Dict[str, int] = {
            "failovers": 0,
            "mirror_legs": 0,
            "mirrored_bytes": 0,
            "wiped_copies": 0,
            "resynced_copies": 0,
            "resynced_bytes": 0,
            "re_replications": 0,
        }
        self._sets: Dict[int, _ReplicaSet] = {}
        self._promotion_hooks: List[Callable[[int, Any, MemoryRegion], None]] = []
        config = cluster.config
        num = cluster.num_memory_servers
        for server in cluster.memory_servers:
            logical = server.server_id
            copies = [ReplicaCopy(logical, server.region)]
            for k in range(1, factor):
                host = cluster.memory_servers[(logical + k) % num]
                store = MemoryRegion(
                    config.region_initial_bytes, config.region_max_bytes
                )
                host.backup_regions[logical] = store
                server.region.attach_mirror(store)
                copies.append(ReplicaCopy(host.server_id, store))
            self._sets[logical] = _ReplicaSet(logical, copies)

    # -- directory -----------------------------------------------------------

    def primary_host_id(self, logical_id: int) -> int:
        """The physical host currently serving *logical_id*."""
        return self._sets[logical_id].primary.host_id

    def route(self, logical_id: int) -> Tuple[Any, MemoryRegion]:
        """``(host MemoryServer, authoritative region)`` for *logical_id*."""
        rset = self._sets[logical_id]
        primary = rset.primary
        return self.cluster.memory_servers[primary.host_id], primary.region

    def replica_set(self, logical_id: int) -> List[ReplicaCopy]:
        """All copies of *logical_id* in placement order (tests/verifier)."""
        return list(self._sets[logical_id].copies)

    def register_promotion_hook(
        self, hook: Callable[[int, Any, MemoryRegion], None]
    ) -> None:
        """Run ``hook(logical_id, new_host, region)`` after every promotion
        (index designs use this to re-install partition trees/handlers)."""
        self._promotion_hooks.append(hook)

    # -- write fan-out -------------------------------------------------------

    def mirror_legs(
        self, logical_id: int, payload_bytes: int
    ) -> Generator[Any, Any, None]:
        """Charge the wire time of mirroring *payload_bytes* of mutation on
        *logical_id* to each live backup: one leg from the primary
        host to the backup plus the backup's zero-payload ack. Runs after
        the primary effect and before the client's completion (synchronous,
        primary-then-backup)."""
        rset = self._sets[logical_id]
        backups = rset.live_backups()
        if not backups:
            return
        fabric = self.cluster.fabric
        src = self.cluster.memory_servers[rset.primary.host_id].port
        for copy in backups:
            dst = self.cluster.memory_servers[copy.host_id].port
            self.stats["mirror_legs"] += 1
            self.stats["mirrored_bytes"] += payload_bytes
            yield fabric.leg_s(src.tx, dst.rx, payload_bytes + MIRROR_HEADER_BYTES)
            yield fabric.leg_s(dst.tx, src.rx, 0)

    # -- crash / recovery ----------------------------------------------------

    def on_crash(self, host_id: int) -> None:
        """A physical host died: every copy it held (its own region and any
        backup stores) is *destroyed* — wiped and marked dead — and mirror
        links touching those copies are torn down. Called by the fault
        injector before anything else observes the crash."""
        for rset in self._sets.values():
            for copy in rset.copies:
                if copy.host_id != host_id or not copy.live:
                    continue
                copy.live = False
                if copy is rset.primary:
                    # A dead authority must stop propagating (it will not —
                    # it is dead — but the links must not survive into a
                    # later resync of this host).
                    for other in rset.copies:
                        if other is not copy:
                            copy.region.detach_mirror(other.region)
                else:
                    rset.primary.region.detach_mirror(copy.region)
                copy.region.wipe()
                self.stats["wiped_copies"] += 1

    def promote(self, logical_id: int) -> None:
        """Promote the first live backup (in placement order) of
        *logical_id* to primary, advance the directory epoch, rewire
        mirrors, re-point every compute server's queue pair for
        *logical_id* at the new primary, run promotion hooks, and start
        background re-replication. Raises :class:`FailoverError` when no
        live copy remains."""
        rset = self._sets[logical_id]
        injector = self.cluster.fault_injector
        candidates = [
            i
            for i, copy in enumerate(rset.copies)
            if copy.live
            and i != rset.primary_index
            and (injector is None or copy.host_id not in injector.down)
        ]
        if not candidates:
            raise FailoverError(
                f"logical server {logical_id} has no live replica to "
                f"promote (replication_factor={self.factor})"
            )
        old_primary = rset.primary
        rset.primary_index = candidates[0]
        new_primary = rset.primary
        for copy in rset.copies:
            old_primary.region.detach_mirror(copy.region)
        for copy in rset.copies:
            if copy is not new_primary and copy.live:
                new_primary.region.attach_mirror(copy.region)
        self.catalog.epoch += 1
        self.stats["failovers"] += 1
        new_host = self.cluster.memory_servers[new_primary.host_id]
        for compute in self.cluster.compute_servers:
            compute.route(logical_id, new_host, new_primary.region)
        for hook in self._promotion_hooks:
            hook(logical_id, new_host, new_primary.region)
        self.cluster.sim.process(self._restore_factor(logical_id))

    def handle_failure(self, logical_id: int, observed_epoch: int) -> bool:
        """Decide what a client whose operation exhausted its retries
        should do. Returns True to retry (the route changed — either
        someone else already failed over, or we just promoted a backup)
        and False to give up (the timeout was not a dead primary)."""
        if self.catalog.epoch != observed_epoch:
            return True
        rset = self._sets[logical_id]
        injector = self.cluster.fault_injector
        if injector is not None and rset.primary.host_id in injector.down:
            self.promote(logical_id)
            return True
        return False

    def resync_host(self, host_id: int) -> int:
        """A host restarted: restore every dead copy it holds from the
        current authority of its replica set (state copy; the caller
        charges wire time via :meth:`background_resync`). Returns the
        number of bytes restored. Copies whose whole replica set died are
        left dead — that data is lost."""
        restored = 0
        for rset in self._sets.values():
            for copy in rset.copies:
                if copy.host_id != host_id or copy.live:
                    continue
                source = rset.primary if rset.primary.live else None
                if source is None or source is copy:
                    live = [c for c in rset.copies if c.live]
                    source = live[0] if live else None
                if source is None:
                    continue
                nbytes = _allocated(source.region)
                copy.region.wipe()
                copy.region.write(0, source.region.read(0, nbytes))
                copy.live = True
                authority = rset.primary
                if copy is authority:
                    # The un-promoted home copy comes back as authority:
                    # it resumes mirroring to the other live copies.
                    for other in rset.copies:
                        if other is not copy and other.live:
                            copy.region.attach_mirror(other.region)
                else:
                    authority.region.attach_mirror(copy.region)
                restored += nbytes
                self.stats["resynced_copies"] += 1
                self.stats["resynced_bytes"] += nbytes
        return restored

    def background_resync(
        self, host_id: int, nbytes: int
    ) -> Generator[Any, Any, None]:
        """Charge the wire occupancy of shipping *nbytes* of resync state
        into *host_id* (the state itself was copied instantly by
        :meth:`resync_host`; this process models the transfer time)."""
        if nbytes <= 0:
            return
        dst = self.cluster.memory_servers[host_id].port
        # Source approximation: the ring predecessor's port; per-set
        # sources would fragment the transfer without changing totals.
        src_id = (host_id - 1) % self.cluster.num_memory_servers
        src = self.cluster.memory_servers[src_id].port
        yield self.cluster.fabric.leg_s(src.tx, dst.rx, nbytes + MIRROR_HEADER_BYTES)

    def _restore_factor(self, logical_id: int) -> Generator[Any, Any, None]:
        """Background re-replication: after a promotion left *logical_id*
        under-replicated, build a fresh backup on the next live host in
        ring order that holds no copy yet. The new copy goes live only
        after the (timed) state transfer completes."""
        rset = self._sets[logical_id]
        if len([c for c in rset.copies if c.live]) >= self.factor:
            return
        injector = self.cluster.fault_injector
        num = self.cluster.num_memory_servers
        member_hosts = {c.host_id for c in rset.copies if c.live}
        target: Optional[int] = None
        for k in range(1, num):
            host_id = (logical_id + k) % num
            if host_id in member_hosts:
                continue
            if injector is not None and host_id in injector.down:
                continue
            target = host_id
            break
        if target is None:
            return
        authority = rset.primary
        config = self.cluster.config
        src = self.cluster.memory_servers[authority.host_id].port
        dst = self.cluster.memory_servers[target].port
        nbytes = _allocated(authority.region)
        yield self.cluster.fabric.leg_s(src.tx, dst.rx, nbytes + MIRROR_HEADER_BYTES)
        if not authority.live or rset.primary is not authority:
            return  # the authority changed under us; a newer task will run
        if injector is not None and target in injector.down:
            return
        store = MemoryRegion(config.region_initial_bytes, config.region_max_bytes)
        store.write(0, authority.region.read(0, _allocated(authority.region)))
        authority.region.attach_mirror(store)
        self.cluster.memory_servers[target].backup_regions[logical_id] = store
        rset.copies.append(ReplicaCopy(target, store))
        self.stats["re_replications"] += 1

    # -- verification --------------------------------------------------------

    def replica_divergences(self, logical_id: int) -> List[str]:
        """Byte-compare every live backup of *logical_id* against its
        authority (up to the allocation high-water mark); returns
        human-readable descriptions of any differences."""
        rset = self._sets[logical_id]
        authority = rset.primary
        if not authority.live:
            return [f"logical server {logical_id} has no live authority"]
        high_water = max(
            int(authority.region.read_u64(ALLOC_WORD_OFFSET)), 8
        )
        reference = authority.region.read(0, high_water)
        problems = []
        for copy in rset.live_backups():
            mirror_bytes = copy.region.read(0, high_water)
            if mirror_bytes != reference:
                first_diff = next(
                    i
                    for i in range(high_water)
                    if reference[i] != mirror_bytes[i]
                )
                problems.append(
                    f"logical {logical_id}: backup on host {copy.host_id} "
                    f"diverges from primary on host {authority.host_id} "
                    f"at byte {first_diff}"
                )
        return problems

    def assert_replicas_converged(self) -> None:
        """Raise :class:`ReplicaDivergenceError` if any live backup differs
        from its authority."""
        problems: List[str] = []
        for logical_id in self._sets:
            problems.extend(self.replica_divergences(logical_id))
        if problems:
            raise ReplicaDivergenceError("; ".join(problems))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicationManager(factor={self.factor}, stats={self.stats})"

