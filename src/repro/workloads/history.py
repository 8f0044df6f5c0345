"""Seeded contended histories: run a :class:`Scenario`, get a :class:`History`.

Each client issues its own seeded ``(method, args)`` stream on a session of
its own compute server, through the workload runner's spawn site and closed
loop, which records every operation in issue order as an
:class:`~repro.workloads.metrics.Op`: its sim invoke and response times and
its result, or the typed error it raised (the client goes on). Then faults
stop and the quiet cluster is scanned and its regions hashed. The streams
own their RNGs: a history is a function of its scenario alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, cast,
)

from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.index import DESIGNS, EpochGarbageCollector, FineGrainedIndex, HashPartitioner
from repro.nam.cluster import Cluster
from repro.workloads.datagen import Dataset, generate_dataset
from repro.workloads.metrics import Op
from repro.workloads.runner import _Run

if TYPE_CHECKING:
    from repro.rdma.faults import FaultPlan

__all__ = ["History", "Scenario", "run_scenario"]

#: A client's operation stream, called as ``ops(client, dataset)``: the
#: ``(session method, args)`` pairs it issues, in order.
OpStream = Callable[[int, Dataset], Iterable[Tuple[str, Tuple[Any, ...]]]]


@dataclass(frozen=True)
class Scenario:
    """One seeded contended run. *config* holds the ``ClusterConfig``
    overrides, the seed among them. *extras*: ``"gc"`` runs the
    fine-grained garbage collector (0.1 ms epochs, head rebuilds on) under
    the clients; ``"probe"`` reads the fine-grained tree's height from a
    compute server of its own before they start."""

    design: str
    ops: OpStream
    partitioning: str = "range"
    config: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional["FaultPlan"] = None
    extras: Tuple[str, ...] = ()
    num_keys: int = 8_000
    clients: int = 8


@dataclass
class History:
    """What a scenario did: every operation in issue order, the quiet full
    scan, the sha256 of every memory server's region, and what the extras
    observed (``height``; ``sweeps`` and ``entries_removed``)."""

    ops: List[Op]
    full_scan: List[Tuple[int, int]]
    regions: List[str]
    observed: Dict[str, int]


def run_scenario(scenario: Scenario) -> History:
    """Run *scenario* on a fresh cluster and return its :class:`History`.

    A partitioning or extra the design does not have raises
    :class:`~repro.errors.ConfigurationError` before the cluster is built."""
    cls = DESIGNS[scenario.design]
    fine_grained = cls is FineGrainedIndex
    if scenario.partitioning not in (("range",) if fine_grained else ("range", "hash")):
        raise ConfigurationError(f"{scenario.design} has no {scenario.partitioning!r} partitioning")
    if not set(scenario.extras) <= ({"gc", "probe"} if fine_grained else set()):
        raise ConfigurationError(f"{scenario.design} has no extras {scenario.extras}")
    cluster = Cluster(ClusterConfig(**scenario.config, clients_per_compute_server=1))
    dataset = generate_dataset(scenario.num_keys)
    options: Dict[str, Any] = {}
    if not fine_grained:
        options["key_space"] = dataset.key_space
        if scenario.partitioning == "hash":
            options["partitioner"] = HashPartitioner(cluster.num_memory_servers)
    index = cls.build(cluster, "history", *dataset.columns(), **options)
    fine = cast(FineGrainedIndex, index)  # the checks above leave extras to it
    observed: Dict[str, int] = {}
    if "probe" in scenario.extras:
        tree = fine.tree_for(cluster.new_compute_server())
        observed["height"] = cluster.execute(tree.height())
    if scenario.faults is not None:
        cluster.attach_faults(scenario.faults)
    if "gc" in scenario.extras:
        tree = fine.tree_for(cluster.new_compute_server())
        collector = EpochGarbageCollector(cluster.sim, tree, epoch_s=0.0001, rebuild_heads=True)
        sweeper = collector.start()
    ops: List[Op] = []
    run = _Run(cluster, index, ops)
    for client, session in enumerate(run.sessions(scenario.clients)):
        run.spawn(session, run.client_loop(client, session, scenario.ops(client, dataset)))
    cluster.sim.run_until_complete(cluster.sim.all_of(run.procs))
    if "gc" in scenario.extras:
        collector.stopped = True
        cluster.sim.run_until_complete(sweeper)
        observed.update(sweeps=collector.sweeps, entries_removed=collector.entries_removed)
    if cluster.fault_injector is not None:
        cluster.fault_injector.quiesce()
    session = index.session(cluster.new_compute_server())
    full_scan = cluster.execute(session.range_scan(0, dataset.key_space))
    regions = [
        hashlib.sha256(server.region.read(0, len(server.region))).hexdigest()
        for server in cluster.memory_servers
    ]
    return History(ops, full_scan, regions, observed)

