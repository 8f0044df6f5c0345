"""Configuration dataclasses for the simulated NAM cluster.

The defaults model a scaled-down version of the paper's testbed (Section 6):
InfiniBand FDR 4x (dual-port Mellanox Connect-IB), machines with two sockets
where the NIC is attached to socket 0, and two memory servers per physical
machine — each memory server owning one NIC port.

All times are in (virtual) seconds, all sizes in bytes, all rates in
bytes/second.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ConfigurationWarning
from repro.obs.config import ObservabilityConfig

__all__ = [
    "NetworkConfig",
    "CpuConfig",
    "TreeConfig",
    "RetryConfig",
    "CacheConfig",
    "AdmissionConfig",
    "ObservabilityConfig",
    "ClusterConfig",
]


def _check_finite(
    config: object, non_negative: Tuple[str, ...] = (), positive: Tuple[str, ...] = ()
) -> None:
    """Raise :class:`ConfigurationError` unless every field named in
    *non_negative* is finite and >= 0 and every one in *positive* is
    finite and > 0 (NaN fails both)."""
    for name in non_negative:
        value = getattr(config, name)
        if not 0 <= value < math.inf:
            raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
    for name in positive:
        value = getattr(config, name)
        if not 0 < value < math.inf:
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated RDMA fabric.

    ``one_way_latency_s`` is the switch+wire propagation delay of a message;
    an RDMA READ therefore costs at least two of these. Bandwidth is modeled
    per NIC port and direction; ``message_overhead_s`` is the per-message
    NIC processing time that caps verb rates.
    """

    one_way_latency_s: float = 1.5e-6
    port_bandwidth_bytes_per_s: float = 6.0e9  # FDR 4x: ~6.8 GB/s raw
    message_overhead_s: float = 0.05e-6
    #: Wire size of a one-sided request header (READ/WRITE/atomic request).
    request_wire_bytes: int = 32
    #: Wire size added to every payload-carrying message (headers/CRC).
    header_wire_bytes: int = 16
    #: Extra serialization delay for atomic verbs at the responder NIC.
    atomic_extra_latency_s: float = 0.3e-6
    #: Local-memory fast path (co-located compute+memory, Appendix A.3).
    local_access_latency_s: float = 0.2e-6
    local_memory_bandwidth_bytes_per_s: float = 50.0e9
    #: Doorbell batching (FaRM-style): queue pairs may chain several
    #: one-sided verbs to the same server into one posted batch — one
    #: request message carrying the summed payloads and, via selective
    #: signaling, one completion/response message for the whole batch.
    #: Consumers: head-node prefetch fan-out (``RemoteAccessor.read_nodes``)
    #: and ``unlock_write``'s WRITE+FETCH_ADD pair. See docs/performance.md.
    doorbell_batching: bool = True
    #: Most work-queue entries one doorbell may flush (send-queue depth a
    #: single post can chain). A longer fan-out to one server is split into
    #: several chains posted one after another; only fan-outs to different
    #: servers overlap in time.
    max_batch_wqes: int = 16

    def __post_init__(self) -> None:
        _check_finite(
            self,
            non_negative=(
                "one_way_latency_s", "message_overhead_s",
                "atomic_extra_latency_s", "local_access_latency_s",
            ),
            positive=("port_bandwidth_bytes_per_s", "local_memory_bandwidth_bytes_per_s"),
        )
        if self.max_batch_wqes < 1:
            raise ConfigurationError("max_batch_wqes must be >= 1")


@dataclass(frozen=True)
class CpuConfig:
    """CPU cost model for memory-server RPC handling (two-sided designs).

    A memory server has ``cores_per_server`` RPC worker threads; each RPC
    occupies one worker for its whole service time, including spin waits —
    this is what makes CG/hybrid degrade under write contention (Figure 12).
    ``qpi_penalty`` multiplies all CPU costs of memory servers whose socket
    does not own the NIC (the second server on each physical machine,
    Section 6.1).
    """

    cores_per_server: int = 4
    rpc_fixed_cost_s: float = 2.0e-6
    per_node_cost_s: float = 0.4e-6
    #: Per response byte: tuple-at-a-time qualification + serialization on
    #: the worker (~2.5 GB/s per core). This is what makes large range
    #: scans CPU-bind the two-sided designs, as the paper observes.
    per_byte_cost_s: float = 0.4e-9
    spin_wait_slice_s: float = 0.5e-6
    qpi_penalty: float = 1.35
    #: Shared receive queues (Section 3.2): with SRQs (the paper's choice)
    #: incoming RPCs land in one queue regardless of the client count.
    #: Without them, workers poll one receive queue per connected client,
    #: adding ``receive_queue_poll_cost_s`` per connection to every RPC —
    #: which is why SRQs "better scale-out with the number of clients".
    use_srq: bool = True
    receive_queue_poll_cost_s: float = 0.02e-6
    #: CPU time a compute-side client spends per node when executing a
    #: traversal locally (co-located CG fast path) or searching a fetched copy.
    client_per_node_cost_s: float = 0.2e-6

    def __post_init__(self) -> None:
        if self.cores_per_server < 1:
            raise ConfigurationError("cores_per_server must be >= 1")
        # A zero spin slice would spin a waiter without advancing the clock.
        _check_finite(
            self,
            non_negative=(
                "rpc_fixed_cost_s", "per_node_cost_s", "per_byte_cost_s",
                "receive_queue_poll_cost_s", "client_per_node_cost_s",
            ),
            positive=("spin_wait_slice_s", "qpi_penalty"),
        )
        if self.qpi_penalty < 1.0:
            raise ConfigurationError("qpi_penalty must be >= 1.0")


@dataclass(frozen=True)
class TreeConfig:
    """B-link tree page parameters (paper Table 1: P, K, fanout M)."""

    page_size: int = 1024
    #: Target fill fraction for bulk-loaded leaves/inner nodes.
    bulk_fill: float = 0.70
    #: A head node is installed for every ``head_node_interval`` leaves
    #: (Section 4.3); 0 disables head nodes.
    head_node_interval: int = 8
    #: Max parallel one-sided READs a scan issues from one head node.
    prefetch_window: int = 8

    def __post_init__(self) -> None:
        if self.page_size < 128:
            raise ConfigurationError("page_size must be >= 128 bytes")
        if not 0.1 <= self.bulk_fill <= 1.0:
            raise ConfigurationError("bulk_fill must be in [0.1, 1.0]")
        if self.head_node_interval < 0:
            raise ConfigurationError("head_node_interval must be >= 0")
        if self.prefetch_window < 1:
            raise ConfigurationError("prefetch_window must be >= 1")


@dataclass(frozen=True)
class RetryConfig:
    """Retry/timeout policy for verbs and RPCs under fault injection.

    This policy is consulted only while a
    :class:`~repro.rdma.faults.FaultInjector` is attached to the cluster;
    without one, messages are never lost and the happy path pays nothing.
    A lost message is detected after ``timeout_s`` and retried up to
    ``max_attempts`` times with exponential backoff
    (``base_delay_s * backoff_multiplier**attempt``) and deterministic
    jitter (``+/- jitter_fraction``, drawn from the injector's seeded RNG).
    When the budget is spent the operation raises
    :class:`~repro.errors.RetriesExhaustedError`.

    ``lock_lease_s`` is the remote-spinlock lease: a client that observes
    the *same* locked version word for at least this long may CAS-steal the
    lock (the holder is presumed crashed). It must comfortably exceed the
    worst-case critical section, including the retry budget of the verbs
    inside it — roughly ``3 * max_attempts * (timeout_s + base_delay_s *
    backoff_multiplier**max_attempts)`` — or a slow-but-alive holder could
    be robbed mid-write (the same lease >> critical-section assumption FaRM
    makes).
    """

    max_attempts: int = 4
    #: Client-side loss-detection timeout per attempt.
    timeout_s: float = 50e-6
    base_delay_s: float = 20e-6
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    lock_lease_s: float = 5e-3
    #: Replayed-response cache entries each queue pair keeps for at-most-
    #: once RPC dedup (:meth:`repro.rdma.qp.QueuePair.rpc_finish`): a
    #: retransmit whose sequence number is still cached replays the stored
    #: response instead of re-running the handler. An entry must survive
    #: until its call's last possible retransmit, i.e. for the retry
    #: budget; undersizing the cache relative to the calls a QP can have
    #: in flight over that window re-executes handlers on late duplicates.
    rpc_dedup_cache_entries: int = 128

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.rpc_dedup_cache_entries < 1:
            raise ConfigurationError("rpc_dedup_cache_entries must be >= 1")
        _check_finite(
            self,
            non_negative=("base_delay_s", "jitter_fraction"),
            positive=("timeout_s", "backoff_multiplier", "lock_lease_s"),
        )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1.0")
        if self.jitter_fraction >= 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1)")
        # Cross-field sanity: a lease that does not comfortably exceed the
        # worst-case retry budget can steal locks from merely-slow (alive)
        # holders — a verb inside a critical section may legitimately take
        # the whole budget before succeeding. Warn rather than reject: some
        # crash-recovery tests configure deliberately tight leases.
        if self.lock_lease_s < 2.0 * self.retry_budget_s:
            warnings.warn(
                f"lock_lease_s={self.lock_lease_s:g} does not comfortably "
                f"exceed the worst-case retry budget "
                f"({self.retry_budget_s:g}s = max_attempts * (timeout_s + "
                f"max backoff)); a slow-but-alive lock holder may be robbed "
                f"mid-write. Use lock_lease_s >= {2.0 * self.retry_budget_s:g}.",
                ConfigurationWarning,
                stacklevel=3,
            )
        # Cross-field sanity: each retried RPC may occupy a dedup slot for
        # its whole retry budget, so a cache that cannot hold a handful of
        # concurrent calls times their retransmit count can evict a live
        # entry — and a late duplicate of the evicted call then *re-runs*
        # its handler, silently breaking at-most-once execution under long
        # retry budgets. Warn rather than reject: unit tests deliberately
        # shrink the cache to exercise eviction.
        if self.rpc_dedup_cache_entries < 4 * self.max_attempts:
            warnings.warn(
                f"rpc_dedup_cache_entries={self.rpc_dedup_cache_entries} is "
                f"small relative to max_attempts={self.max_attempts}; a "
                f"dedup entry can be evicted while its call's retransmits "
                f"are still in flight (retry budget {self.retry_budget_s:g}s), "
                f"re-executing the handler and breaking at-most-once RPC "
                f"semantics. Use rpc_dedup_cache_entries >= "
                f"{4 * self.max_attempts}.",
                ConfigurationWarning,
                stacklevel=3,
            )

    @property
    def retry_budget_s(self) -> float:
        """Worst-case wall time one verb can spend inside its retry loop
        (:func:`retry_budget_s` of this policy)."""
        return retry_budget_s(
            self.max_attempts, self.timeout_s, self.base_delay_s,
            self.backoff_multiplier, self.jitter_fraction,
        )


def retry_budget_s(
    max_attempts: float,
    timeout_s: float,
    base_delay_s: float,
    backoff_multiplier: float,
    jitter_fraction: float,
) -> float:
    """Worst-case wall time one verb can spend inside its retry loop:
    ``max_attempts * (timeout_s + max backoff)``, with the backoff taken at
    its largest (last-attempt, maximum-jitter) value. A function of the
    :class:`RetryConfig` fields it names, so namsan N07 applies the same
    formula to a construction's literals without building one."""
    max_backoff = (
        base_delay_s * backoff_multiplier ** (max_attempts - 1) * (1.0 + jitter_fraction)
    )
    return max_attempts * (timeout_s + max_backoff)


@dataclass(frozen=True)
class CacheConfig:
    """Client-side index-node cache (Appendix A.4 / docs/caching.md).

    ``depth`` is the design axis: how many of the top tree levels each
    client caches. Depth 1 caches only the root level, depth 2 the root
    plus the level below it, and so on — always clipped above the leaves
    (a stale leaf would return wrong data, so leaves are never cached).
    Depth 0 (the default) disables the cache entirely and keeps every
    session bit-identical to the uncached build.

    Coherence: cached images are trusted for *routing* only as long as the
    index's structure epoch (bumped by inner-node SMOs, published through
    the catalog) has not moved; afterwards they are revalidated with a
    1-verb READ of the page's version word. On the write path, a lock
    attempt whose version came from the cache is preceded by the same
    header READ.
    """

    #: Top tree levels cached per client (0 disables the cache).
    depth: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ConfigurationError("cache depth must be >= 0")


@dataclass(frozen=True)
class AdmissionConfig:
    """Memory-server admission control and bulkheads (docs/overload.md).

    Off by default: ``enabled=False`` keeps the RPC path byte-identical to
    builds without the subsystem — envelopes go straight onto the unbounded
    SRQ and no controller object is even created.

    When enabled, every incoming RPC passes three gates *before* it may
    occupy queue space or a worker:

    1. **Token bucket** (per tenant): tenants named in ``tenant_rate_ops``
       are limited to that many admitted RPCs/s per memory server, with a
       burst allowance of :data:`~repro.nam.admission.TENANT_BURST_OPS`
       (32) tokens. Over-rate requests are rejected with
       :class:`~repro.errors.ThrottledError`.
    2. **Bounded queue** (queue-based load leveling): each worker-pool
       queue holds at most ``max_queue_depth`` waiting RPCs; arrivals
       beyond that are rejected with
       :class:`~repro.errors.AdmissionRejectedError` instead of growing
       the queue — and the queueing delay — without bound.
    3. **Bulkheads**: tenants named in ``bulkhead_workers`` get that many
       *dedicated* worker cores and their own bounded queue; all other
       tenants share the remaining cores. A flooding tenant can then
       saturate only its own partition of the server.

    Rejections are completed NIC-side (the receive queue bounces the
    message) — they cost wire time but never a worker, which is what
    keeps goodput up under a flash crowd.
    """

    enabled: bool = False
    #: Waiting-RPC bound per worker-pool queue.
    max_queue_depth: int = 64
    #: Per-tenant admitted-RPC rate limit, ops/s *per memory server*
    #: (requests fan out over servers, so a tenant's cluster-wide rate is
    #: roughly this times the server count). Tenants not named — including
    #: the anonymous ``None`` tenant — are not rate-limited.
    tenant_rate_ops: Optional[Mapping[str, float]] = None
    #: Dedicated worker cores per bulkheaded tenant. The sum must leave at
    #: least one core for the shared pool (checked against
    #: ``cpu.cores_per_server`` when the cluster is built).
    bulkhead_workers: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if self.tenant_rate_ops is not None:
            for tenant, rate in self.tenant_rate_ops.items():
                if not 0 < rate < math.inf:
                    raise ConfigurationError(
                        f"tenant_rate_ops[{tenant!r}] must be finite and > 0, got {rate}"
                    )
        if self.bulkhead_workers is not None:
            for tenant, workers in self.bulkhead_workers.items():
                if workers < 1:
                    raise ConfigurationError(
                        f"bulkhead_workers[{tenant!r}] must be >= 1, "
                        f"got {workers}"
                    )


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of the simulated NAM cluster.

    The paper's throughput experiments use 4 memory servers on 2 physical
    machines (2 servers/machine, one NIC port each) and 1-6 compute servers
    with 40 client threads each; those are the defaults here.
    """

    num_memory_servers: int = 4
    memory_servers_per_machine: int = 2
    clients_per_compute_server: int = 40
    #: Initial/maximum registered region size per memory server. Regions
    #: grow on demand up to the maximum, and back with memory only the
    #: bytes an access has reached (``repro.rdma.memory``).
    region_initial_bytes: int = 1 << 21
    region_max_bytes: int = 1 << 28
    #: Co-locate compute servers with memory servers on the same physical
    #: machines (Appendix A.3). Local accesses then bypass the NIC.
    colocated: bool = False
    #: Copies of every logical memory server's state (FaRM-style
    #: primary/backup): 1 (the default) disables replication entirely —
    #: no backup stores, no mirror traffic, behavior bit-identical to the
    #: unreplicated build. With k > 1, each logical server's pages are
    #: mirrored onto the next ``k - 1`` servers in ring order and a crash
    #: becomes destructive-but-survivable (see docs/replication.md).
    replication_factor: int = 1
    seed: int = 42

    network: NetworkConfig = field(default_factory=NetworkConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    tree: TreeConfig = field(default_factory=TreeConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    #: Client-side index-node cache. Off by default (depth 0): sessions
    #: then use the plain one-sided accessors, byte-identical to builds
    #: without the subsystem. See docs/caching.md.
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Memory-server admission control: bounded RPC queues, per-tenant
    #: token buckets and bulkhead worker pools. Off by default: envelopes
    #: go straight onto the unbounded SRQ, byte-identical to builds
    #: without the subsystem. See docs/overload.md.
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Fabric-wide observability (metrics registry + span sampling). Off by
    #: default: no hub is created and every instrumentation point is a
    #: single ``is None`` test, keeping runs byte-identical to builds
    #: without the subsystem. See docs/observability.md.
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __post_init__(self) -> None:
        if self.num_memory_servers < 1:
            raise ConfigurationError("need at least one memory server")
        if self.memory_servers_per_machine < 1:
            raise ConfigurationError("memory_servers_per_machine must be >= 1")
        if self.clients_per_compute_server < 1:
            raise ConfigurationError("clients_per_compute_server must be >= 1")
        if self.num_memory_servers > 128:
            raise ConfigurationError(
                "remote pointers encode the server id in 7 bits; "
                "at most 128 memory servers are supported"
            )
        if self.region_initial_bytes > self.region_max_bytes:
            raise ConfigurationError(
                "region_initial_bytes must not exceed region_max_bytes"
            )
        if self.replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")
        if self.replication_factor > self.num_memory_servers:
            raise ConfigurationError(
                f"replication_factor={self.replication_factor} needs at "
                f"least that many memory servers "
                f"(have {self.num_memory_servers})"
            )
        # Cross-field check: bulkheads carve dedicated cores out of each
        # memory server's worker pool; at least one core must remain for
        # the shared (non-bulkheaded) tenants.
        if self.admission.enabled and self.admission.bulkhead_workers:
            dedicated = sum(self.admission.bulkhead_workers.values())
            if dedicated >= self.cpu.cores_per_server:
                raise ConfigurationError(
                    f"bulkhead_workers reserve {dedicated} of "
                    f"{self.cpu.cores_per_server} cores per server; at "
                    f"least one core must stay in the shared pool"
                )

    @property
    def num_machines(self) -> int:
        """Physical machines hosting the memory servers."""
        full, rem = divmod(self.num_memory_servers, self.memory_servers_per_machine)
        return full + (1 if rem else 0)

    def with_(self, **changes) -> "ClusterConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)
