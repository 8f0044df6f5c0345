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

__all__ = ["ComputeServer"]


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
        self._qps: Dict[int, QueuePair] = {}
        for server in memory_servers:
            local = colocated and server.machine is machine
            self._qps[server.server_id] = QueuePair(
                sim,
                fabric,
                port,
                server,
                use_local_fast_path=local,
                owner=self,
            )

    def qp(self, server_id: int) -> QueuePair:
        """The queue pair connected to *logical* memory server *server_id*.

        Under replication this is a routed lookup: when the directory
        epoch has advanced since the QP was last resolved, the server-
        indirection table is consulted and — if the logical server moved
        to a promoted backup — a fresh QP to the new physical host is
        built. Without a replication manager the dictionary lookup is all
        that happens.
        """
        try:
            qp = self._qps[server_id]
        except KeyError:
            raise NetworkError(
                f"compute server {self.server_id} has no QP to "
                f"memory server {server_id}"
            ) from None
        replication = self.fabric.replication
        if replication is not None and qp.route_epoch != replication.catalog.epoch:
            host, region = replication.route(server_id)
            if host is not qp.remote or region is not qp.region:
                local = self._colocated and host.machine is self.machine
                qp = QueuePair(
                    self.sim,
                    self.fabric,
                    self.port,
                    host,
                    use_local_fast_path=local,
                    region=region,
                    logical_id=server_id,
                    owner=self,
                )
                self._qps[server_id] = qp
            qp.route_epoch = replication.catalog.epoch
        return qp

    @property
    def num_memory_servers(self) -> int:
        return len(self._qps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComputeServer({self.server_id}, machine={self.machine.machine_id})"
