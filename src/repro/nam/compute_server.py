"""Compute servers: the processing half of the NAM architecture.

A compute server hosts client threads (the paper's "clients": 40 per
compute server) and owns one NIC port plus a reliable-connection queue pair
to every memory server. Index *sessions* created on a compute server issue
their RDMA operations through these queue pairs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import NetworkError
from repro.nam.machine import PhysicalMachine
from repro.nam.memory_server import MemoryServer
from repro.rdma.fabric import Fabric
from repro.rdma.nic import NicPort
from repro.rdma.qp import QueuePair
from repro.sim import Simulator

__all__ = ["ComputeServer", "QueuePairTable"]


class QueuePairTable(dict):
    """Logical memory-server id -> the :class:`QueuePair` a compute server
    posts on. Indexed directly on every verb and RPC; an id with no entry
    raises :class:`~repro.errors.NetworkError`, not ``KeyError``."""

    __slots__ = ("owner_id",)

    def __init__(self, owner_id: int) -> None:
        super().__init__()
        self.owner_id = owner_id

    def __missing__(self, server_id: int) -> QueuePair:
        raise NetworkError(
            f"compute server {self.owner_id} has no QP to "
            f"memory server {server_id}"
        )


class ComputeServer:
    """One compute server with queue pairs to all memory servers."""

    def __init__(
        self,
        sim: Simulator,
        server_id: int,
        machine: PhysicalMachine,
        port: NicPort,
        fabric: Fabric,
        memory_servers: List[MemoryServer],
        colocated: bool,
    ) -> None:
        self.sim = sim
        self.server_id = server_id
        self.machine = machine
        self.port = port
        #: Kept so accessors can reach the fabric's fault injector (lock
        #: leases are enabled only while one is attached).
        self.fabric = fabric
        self._colocated = colocated
        #: Decode memo of the remote accessors: the cluster's one shared dict
        #: (see ``Cluster.decode_memo``), a private one on a hand-built server.
        self.decode_memo: Dict[int, Any] = {}
        #: The routing table. Accessors and sessions index it directly and
        #: may keep a reference: it is re-pointed in place, never replaced.
        self.qps = QueuePairTable(server_id)
        replication = fabric.replication
        for server in memory_servers:
            if replication is None:
                self.route(server.server_id, server, server.region)
            else:
                self.route(server.server_id, *replication.route(server.server_id))

    def route(self, logical_id: int, host: MemoryServer, region: Any) -> None:
        """Point the entry for *logical_id* at a fresh queue pair to *host*,
        addressing *region*. Called for every logical server when this
        compute server is built, and by
        :meth:`~repro.nam.replication.ReplicationManager.promote` for the
        promoted one. A verb already posted keeps the queue pair it was
        posted on."""
        self.qps[logical_id] = QueuePair(
            self.sim,
            self.fabric,
            self.port,
            host,
            use_local_fast_path=self._colocated and host.machine is self.machine,
            region=region,
            logical_id=logical_id,
            owner=self,
        )

    def qp(self, server_id: int) -> QueuePair:
        """The queue pair connected to *logical* memory server *server_id*:
        ``qps[server_id]``. Routing is pushed, not pulled: the table is
        filled when the server is built, against the replication
        directory if there is one, and a promotion re-points the promoted
        id's entry; nothing is checked per call. Raises
        :class:`~repro.errors.NetworkError` for an id with no entry."""
        return self.qps[server_id]

    @property
    def num_memory_servers(self) -> int:
        return len(self.qps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComputeServer({self.server_id}, machine={self.machine.machine_id})"
