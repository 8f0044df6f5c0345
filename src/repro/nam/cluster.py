"""Cluster assembly: machines, memory servers, compute servers, fabric.

:class:`Cluster` is the main entry point of the library::

    from repro import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(num_memory_servers=4))
    cs = cluster.new_compute_server()
    index = FineGrainedIndex.build(cluster, "idx", pairs)
    session = index.session(cs)
    values = cluster.execute(session.lookup(42))

Memory servers are placed ``memory_servers_per_machine`` per physical
machine, each on its own NIC port; servers beyond the first on a machine
pay the QPI penalty (Section 6.1). Compute servers get their own machines,
or — when ``config.colocated`` is set (Appendix A.3) — are placed round-
robin onto the memory machines, where accesses to the co-resident memory
servers take the local-memory fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.nam.catalog import Catalog, RootLocation
from repro.nam.compute_server import ComputeServer
from repro.nam.machine import PhysicalMachine
from repro.nam.memory_server import MemoryServer
from repro.rdma.fabric import Fabric
from repro.rdma.nic import NicPort
from repro.sim import Simulator

__all__ = ["Cluster", "DirectPageSink"]


class DirectPageSink:
    """Construction-time page storage for bulk loads (no simulated traffic)."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self.page_size = cluster.config.tree.page_size

    def alloc_page(self, server_id: int) -> int:
        return self._cluster.memory_servers[server_id].allocator.allocate()

    def write_page(self, server_id: int, offset: int, data: bytes) -> None:
        self._cluster.memory_servers[server_id].region.write(offset, data)


class Cluster:
    """A simulated NAM cluster."""

    def __init__(self, config: ClusterConfig = None) -> None:
        self.config = config or ClusterConfig()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.config.network)
        self.catalog = Catalog()
        self.rng = np.random.default_rng(self.config.seed)

        self.memory_machines: List[PhysicalMachine] = []
        self.memory_servers: List[MemoryServer] = []
        per_machine = self.config.memory_servers_per_machine
        for machine_id in range(self.config.num_machines):
            machine = PhysicalMachine(
                self.sim,
                machine_id,
                self.config.network,
                num_ports=per_machine,
                kind="memory",
            )
            self.memory_machines.append(machine)
        for server_id in range(self.config.num_memory_servers):
            machine = self.memory_machines[server_id // per_machine]
            slot = server_id % per_machine
            self.memory_servers.append(
                MemoryServer(
                    self.sim,
                    server_id,
                    machine,
                    machine.port(slot),
                    self.config,
                    crosses_qpi=(slot > 0),
                )
            )
        self.compute_servers: List[ComputeServer] = []
        #: The decode memo: ``raw_ptr -> master Node`` of the last unlocked
        #: image decoded or written there, one dict under every accessor of
        #: the cluster (``index/accessors.py::_SharedDecode``). Every read
        #: returns the master; a writer clones it after its lock CAS. A
        #: master a range scan has read also carries that image's live pairs
        #: (``Node.live``), so they too are built once per page version.
        #: Host-side only: the READ or CPU slice is paid before it is
        #: consulted, a hit charges what a miss does. Sound — under faults
        #: and replication too — because
        #: ``(raw_ptr, even version)`` names one page content for this
        #: cluster's whole run, whoever reads: (1) a page is never handed
        #: out twice — pages are bump-allocated, ``PageAllocator.free`` has
        #: no caller under ``src/`` (one that recycles must drop the page's
        #: entry here), and :class:`DirectPageSink` writes only pages it has
        #: just allocated; (2) version words only grow, a page is rewritten
        #: in place only under its lock, and odd (locked) images are never
        #: memoized; (3) backups are byte-converged by synchronous region
        #: mirrors, so a promoted copy serves the same bytes under the same
        #: word, and a retried READ replays its first delivery; (4) the zeros
        #: of a crashed host's wiped regions — version word 0, the word of
        #: every bulk-loaded page — never reach the memo: a queue pair
        #: serves no verb from a down server (co-location with crashes is
        #: unsupported, docs/replication.md), and an RPC worker that outlives
        #: its host's crash decodes around the memo
        #: (``LocalAccessor.read_node``); (5) a robbed-but-alive lock holder
        #: is excluded by the lease assumption ``RetryConfig`` warns about.
        #: Writers publish by the same premises: an ``unlock_write`` whose
        #: FAA returns the word it wrote (odd, ``node.version``) knows the
        #: page holds exactly its node at ``old + 1`` — only the lock holder
        #: writes (2, 5), an RC chain applies its WRITE before its FAA, and
        #: mirrors are synchronous (3) — and stores that node as the master
        #: of ``old + 1``. Not a down host's RPC worker: it wrote into a
        #: wiped region, and the promoted copy may yet steal the lock back
        #: to the old image under that same version. ``write_node`` (fresh
        #: pages at version 0) publishes nothing, by (4). Per cluster, never
        #: module-global: two clusters in one process reuse pointers with
        #: different bytes. Live servers bypass it in one place:
        #: ``verify_index`` checks it against the bytes, then empties it.
        self.decode_memo: Dict[int, Any] = {}
        for server in self.memory_servers:
            server.decode_memo = self.decode_memo
        #: Set by :meth:`attach_faults`; None means a perfectly reliable fabric.
        self.fault_injector = None
        #: :class:`repro.obs.hub.Observability` hub, or None (the default).
        #: With observability disabled no hub exists anywhere in the
        #: cluster and every emission point degenerates to an ``is None``
        #: test — runs are byte-identical to builds without the subsystem.
        self.obs = None
        if self.config.observability.enabled:
            from repro.obs.hub import Observability

            self.obs = Observability(self.sim, self.config.observability)
            self.obs.attach_cluster(self)
            self.fabric.obs = self.obs
            for server in self.memory_servers:
                server.obs = self.obs
        #: Primary/backup replication (None when ``replication_factor == 1``,
        #: leaving every hot path bit-identical to the unreplicated build).
        self.replication = None
        if self.config.replication_factor > 1:
            from repro.nam.replication import ReplicationManager

            self.replication = ReplicationManager(
                self, self.config.replication_factor
            )
            self.fabric.replication = self.replication
            for server in self.memory_servers:
                server.replication = self.replication

    # -- fault injection --------------------------------------------------------

    def attach_faults(self, plan) -> "FaultInjector":
        """Attach a :class:`~repro.rdma.faults.FaultPlan` to this cluster.

        Creates a :class:`~repro.rdma.faults.FaultInjector` (driven by
        ``config.retry``), wires it into the fabric and every memory
        server, and arms the plan's scheduled crashes. Attaching any
        injector — even for a no-op plan — also enables lock-lease
        recovery on remote accessors. Returns the injector.
        """
        from repro.rdma.faults import FaultInjector

        if self.fault_injector is not None:
            raise ConfigurationError("a fault injector is already attached")
        injector = FaultInjector(self.sim, plan, self.config.retry)
        injector.obs = self.obs
        self.fabric.attach_injector(injector)
        for server in self.memory_servers:
            server.injector = injector
        self.fault_injector = injector
        injector.start(self)
        return injector

    def detach_faults(self) -> None:
        """Remove the injector entirely (also disables lock leases)."""
        self.fabric.detach_injector()
        for server in self.memory_servers:
            server.injector = None
        self.fault_injector = None

    # -- topology -------------------------------------------------------------

    @property
    def num_memory_servers(self) -> int:
        return len(self.memory_servers)

    def memory_server(self, server_id: int) -> MemoryServer:
        try:
            return self.memory_servers[server_id]
        except IndexError:
            raise ConfigurationError(f"no memory server {server_id}") from None

    def new_compute_server(self) -> ComputeServer:
        """Add a compute server (its own machine, or co-located if configured)."""
        server_id = len(self.compute_servers)
        if self.config.colocated:
            machine = self.memory_machines[server_id % len(self.memory_machines)]
            port = self._add_port(machine)
        else:
            machine = PhysicalMachine(
                self.sim,
                machine_id=1000 + server_id,
                network=self.config.network,
                num_ports=1,
                kind="compute",
            )
            port = machine.port(0)
        server = ComputeServer(
            self.sim,
            server_id,
            machine,
            port,
            self.fabric,
            self.memory_servers,
            colocated=self.config.colocated,
        )
        server.decode_memo = self.decode_memo
        self.compute_servers.append(server)
        return server

    def _add_port(self, machine: PhysicalMachine) -> NicPort:
        port = NicPort(
            self.sim, self.config.network, f"{machine.nic.label}/px"
        )
        machine.nic.ports.append(port)
        return port

    # -- bulk-load / control-word plumbing ---------------------------------------

    def direct_sink(self) -> DirectPageSink:
        """Page sink for :func:`repro.btree.bulk.bulk_load`."""
        return DirectPageSink(self)

    def alloc_control_word(self, server_id: int) -> RootLocation:
        """Reserve a page on *server_id* whose first word holds a root pointer."""
        offset = self.memory_server(server_id).allocator.allocate()
        return RootLocation(server_id=server_id, offset=offset)

    def write_control_word(self, server_id: int, offset: int, raw: int) -> None:
        """Construction-time store of a control word (root pointer install).

        The control-plane counterpart of :class:`DirectPageSink`: index
        build paths install root pointers here instead of poking region
        buffers directly (lint rule N03). Like all construction-time
        stores it happens before any workload and is outside the trace
        sanitizer's model.
        """
        self.memory_server(server_id).region.write_u64(offset, raw)

    def page_image(self, server_id: int, offset: int) -> Optional[bytes]:
        """The page at *offset* of logical server *server_id*, copied from
        its authoritative region (after a failover, the promoted copy's),
        or None while that region's host is down. No simulated traffic:
        the read-side counterpart of :meth:`write_control_word`, for
        oracles that audit the accessors' product from outside."""
        if self.replication is not None:
            host, region = self.replication.route(server_id)
        else:
            host = self.memory_server(server_id)
            region = host.region
        injector = self.fault_injector
        if injector is not None and injector.server_down(host.server_id):
            return None
        return region.read(offset, self.config.tree.page_size)

    # -- running --------------------------------------------------------------

    def execute(self, generator: Generator) -> Any:
        """Run a single operation (a simulation process) to completion."""
        return self.sim.run_until_complete(self.sim.process(generator))

    def spawn(self, generator: Generator):
        """Start a background process (GC threads, client loops)."""
        return self.sim.process(generator)

    def run(self, until: float = None) -> None:
        self.sim.run(until)

    @property
    def now(self) -> float:
        return self.sim.now

    # -- statistics -------------------------------------------------------------

    def network_snapshot(self) -> Dict[int, Tuple[int, int]]:
        """Per-memory-server ``(bytes_tx, bytes_rx)`` wire counters."""
        return {
            server.server_id: server.port.traffic()
            for server in self.memory_servers
        }

    def reset_measurement(self) -> Dict[str, Any]:
        """Snapshot all counters at the start of a measurement window."""
        for server in self.memory_servers:
            server.reset_utilization()
        return {
            "now": self.now,
            "network": self.network_snapshot(),
            "verbs": {
                server.server_id: server.stats.snapshot()
                for server in self.memory_servers
            },
        }

    def measurement_delta(self, baseline: Dict[str, Any]) -> Dict[str, Any]:
        """Counters accumulated since :meth:`reset_measurement`."""
        window = self.now - baseline["now"]
        network = {}
        for server_id, (tx0, rx0) in baseline["network"].items():
            tx1, rx1 = self.network_snapshot()[server_id]
            network[server_id] = (tx1 - tx0, rx1 - rx0)
        verbs = {
            server.server_id: server.stats.delta(baseline["verbs"][server.server_id])
            for server in self.memory_servers
        }
        cpu = {
            server.server_id: server.cpu_utilization(window)
            for server in self.memory_servers
        }
        return {"window": window, "network": network, "verbs": verbs, "cpu": cpu}
