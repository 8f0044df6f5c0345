"""repro — distributed tree-based index structures for RDMA networks.

A faithful, simulator-backed reproduction of

    Ziegler, Tumkur Vani, Binnig, Fonseca, Kraska.
    "Designing Distributed Tree-based Index Structures for Fast
    RDMA-capable Networks." SIGMOD 2019.

Quickstart::

    from repro import Cluster, ClusterConfig, FineGrainedIndex

    cluster = Cluster(ClusterConfig(num_memory_servers=4))
    compute = cluster.new_compute_server()
    keys = list(range(10_000))
    values = [key * 10 for key in keys]
    index = FineGrainedIndex.build(cluster, "demo", keys, values)
    session = index.session(compute)
    assert cluster.execute(session.lookup(1234)) == [12340]

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.config import (
    AdmissionConfig,
    CacheConfig,
    ClusterConfig,
    CpuConfig,
    NetworkConfig,
    RetryConfig,
    TreeConfig,
)
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationWarning,
    FailoverError,
    ReplicaDivergenceError,
    ReproError,
    RetriesExhaustedError,
    ThrottledError,
    TimeoutError_,
)
from repro.index import (
    CoarseGrainedIndex,
    DistributedIndex,
    EpochGarbageCollector,
    FineGrainedIndex,
    HashPartitioner,
    HybridIndex,
    IndexSession,
    RangePartitioner,
    VerifyReport,
    check_tree,
    verify_index,
)
from repro.nam import Cluster, ComputeServer, MemoryServer
from repro.obs import Observability, ObservabilityConfig
from repro.rdma.faults import ComputeCrash, FaultInjector, FaultPlan, ServerCrash
from repro.rdma.tracing import VerbTracer
from repro.reporting import ascii_chart, results_to_csv, write_csv

__version__ = "1.0.0"

__all__ = [
    "AdmissionConfig",
    "CacheConfig",
    "ClusterConfig",
    "CpuConfig",
    "NetworkConfig",
    "RetryConfig",
    "TreeConfig",
    "ReproError",
    "RetriesExhaustedError",
    "TimeoutError_",
    "AdmissionRejectedError",
    "ThrottledError",
    "FailoverError",
    "ReplicaDivergenceError",
    "ConfigurationWarning",
    "ComputeCrash",
    "FaultInjector",
    "FaultPlan",
    "ServerCrash",
    "CoarseGrainedIndex",
    "DistributedIndex",
    "EpochGarbageCollector",
    "FineGrainedIndex",
    "HashPartitioner",
    "HybridIndex",
    "IndexSession",
    "RangePartitioner",
    "VerifyReport",
    "check_tree",
    "verify_index",
    "Cluster",
    "ComputeServer",
    "MemoryServer",
    "Observability",
    "ObservabilityConfig",
    "VerbTracer",
    "ascii_chart",
    "results_to_csv",
    "write_csv",
    "__version__",
]
