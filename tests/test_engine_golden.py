"""Differential goldens for the engine fast paths (docs/performance.md).

The host-side fast paths — zero-copy region views, decode memoization,
shared (no-clone) read-only traversals, hoisted queue-pair constants —
must never change *what* the simulator computes, only how fast the host
executes it. These tests pin that contract:

* a golden fingerprint per (design, batching) cell: exact event count and
  a hash over every op count, latency sample, network counter, and error
  tally. Any optimization that perturbs a single scheduled event or one
  latency in the twelfth decimal fails loudly. The same cell with the
  observability hub on must hit the same golden: the hub never schedules
  an event;
* unit guards on the individual fast paths (decode-cache invalidation,
  shared-master immutability, event-free channel reservations).

If a legitimate behavioral change lands (new event, different workload
mix), re-capture with the snippet at the bottom of this file.
"""

import hashlib

import pytest

from repro.config import (
    ClusterConfig,
    NetworkConfig,
    ObservabilityConfig,
    TreeConfig,
)
from repro.experiments.common import build_index
from repro.btree.node import Node, NodeType
from repro.index.accessors import RemoteAccessor
from repro.nam.cluster import Cluster
from repro.sim.core import Simulator
from repro.sim.resources import BandwidthChannel
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

# Captured on the seed behavior (pre-optimization) and re-verified after
# every engine change: (simulator events scheduled, result fingerprint).
_GOLDENS = {
    ("coarse-grained", True): (
        21199,
        "e7fcb7a6e3aaf871aac28c3a2a58dfd4f2f35c2aee96816faa3ad487c9b8b85a",
    ),
    ("coarse-grained", False): (
        21199,
        "e7fcb7a6e3aaf871aac28c3a2a58dfd4f2f35c2aee96816faa3ad487c9b8b85a",
    ),
    ("fine-grained", True): (
        8961,
        "b9aa736800a959dd92824ce9bec85d8d6357150d647989f3af45939c27f6a736",
    ),
    ("fine-grained", False): (
        10369,
        "837ff4b895498648934f111d455642134381a87dc44a2faf388bb133997c0453",
    ),
    ("hybrid", True): (
        10642,
        "74366dbcc1a4349d34a0ca50adb916129924baf48f1fefc399054d19071a8d62",
    ),
    ("hybrid", False): (
        11358,
        "e8f3b995d6bd91929ab392e422413c082940e260af8ef6201fbfa48e1ff71b55",
    ),
}

_SPEC = WorkloadSpec(
    name="engine-diff",
    point_fraction=0.1,
    range_fraction=0.6,
    insert_fraction=0.3,
    selectivity=0.1,
)


def _fingerprint(result) -> str:
    """Hash every observable outcome of a run: op counts, each latency
    sample (rounded to picoseconds — far below any real event spacing),
    per-server network counters, and error tallies."""
    digest = hashlib.sha256()
    digest.update(repr(sorted(result.op_counts.items())).encode())
    for op in sorted(result.latencies):
        digest.update(op.encode())
        digest.update(
            repr([round(v, 12) for v in result.latencies[op]]).encode()
        )
    digest.update(repr(sorted(result.network.items())).encode())
    digest.update(repr(sorted(result.errors.items())).encode())
    return digest.hexdigest()


def _run_cell(design: str, batched: bool, obs: bool = False):
    dataset = generate_dataset(3000, 8)
    config = ClusterConfig(
        num_memory_servers=4,
        memory_servers_per_machine=2,
        network=NetworkConfig(
            message_overhead_s=1.0e-6, doorbell_batching=batched
        ),
        tree=TreeConfig(page_size=512, head_node_interval=24, prefetch_window=24),
        seed=7,
        observability=ObservabilityConfig(enabled=obs),
    )
    cluster = Cluster(config)
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, _SPEC, num_clients=8, warmup_s=0.0005, measure_s=0.002, seed=7
    )
    return cluster, result


@pytest.mark.parametrize("design,batched,obs", [
    pytest.param(design, batched, obs, id=f"{design}-{batched}" + ("-obs" if obs else ""))
    for obs in (False, True) for design, batched in sorted(_GOLDENS)
])
def test_golden_fingerprint(design, batched, obs):
    """The optimized engine schedules the exact golden event count and
    reproduces every measured sample bit-for-bit, hub on or off."""
    cluster, result = _run_cell(design, batched, obs)
    steps, fingerprint = _GOLDENS[(design, batched)]
    assert cluster.sim.events_scheduled == steps
    assert _fingerprint(result) == fingerprint


class TestDecodeCache:
    """The (raw_ptr, version)-keyed decode memoization in RemoteAccessor."""

    @pytest.fixture
    def acc(self, cluster, compute):
        return RemoteAccessor(compute, cluster.config)

    @staticmethod
    def _page(version, keys=(10, 20), page_size=512):
        node = Node(
            NodeType.LEAF,
            level=0,
            version=version,
            keys=list(keys),
            values=[k * 7 for k in keys],
        )
        return node.to_bytes(page_size)

    def test_unchanged_version_reuses_master(self, acc):
        data = self._page(version=4)
        first = acc._decode_shared(0x100, data)
        second = acc._decode_shared(0x100, data)
        assert second is first  # memoized, not re-parsed

    def test_version_bump_invalidates(self, acc):
        old = acc._decode_shared(0x100, self._page(version=4))
        new = acc._decode_shared(0x100, self._page(version=6, keys=(10, 20, 30)))
        assert new is not old
        assert new.version == 6 and new.keys == [10, 20, 30]
        # The bumped image replaces the master for subsequent reads.
        assert acc._decode_shared(0x100, self._page(version=6, keys=(10, 20, 30))) is new

    def test_locked_images_never_cached(self, acc):
        locked = acc._decode_shared(0x100, self._page(version=5))
        assert locked.version == 5
        assert 0x100 not in acc._decode_cache
        # A later unlocked image at the same pointer caches normally.
        unlocked = acc._decode_shared(0x100, self._page(version=6))
        assert acc._decode_cache[0x100] is unlocked

    def test_pointers_cached_independently(self, acc):
        a = acc._decode_shared(0x100, self._page(version=2))
        b = acc._decode_shared(0x200, self._page(version=2, keys=(1,)))
        assert a is not b
        assert acc._decode_shared(0x100, self._page(version=2)) is a

    def test_memoryview_input_decodes_like_bytes(self, acc):
        """The zero-copy read path hands ``_decode_shared`` a read-only
        memoryview; the decode must be identical to the bytes path."""
        raw = self._page(version=8, keys=(3, 9, 27))
        via_view = acc._decode_shared(
            0x300, memoryview(bytearray(raw)).toreadonly()
        )
        acc._decode_cache.clear()
        via_bytes = acc._decode_shared(0x300, raw)
        assert via_view.keys == via_bytes.keys
        assert via_view.values == via_bytes.values
        assert via_view.version == via_bytes.version == 8


def test_read_node_returns_the_master_and_ignores_its_second_argument(
    cluster, compute
):
    """Every ``read_node`` hands back the memoized master (no clone), with
    or without the second argument, which no caller under ``src/`` passes
    any more. A writer's clone is its own: changing it leaves the master."""
    acc = RemoteAccessor(compute, cluster.config)
    node = Node(NodeType.LEAF, level=0, version=2, keys=[5], values=[50])
    page = node.to_bytes(cluster.config.tree.page_size)
    ptr = cluster.execute(acc.alloc(0))
    cluster.execute(
        compute.qp((ptr >> 56) & 0x7F).write(ptr & ((1 << 56) - 1), page)
    )

    master = cluster.execute(acc.read_node(ptr))
    assert cluster.execute(acc.read_node(ptr, True)) is master
    assert cluster.execute(acc.read_node(ptr, False)) is master
    assert cluster.decode_memo[ptr] is master
    private = master.clone()
    private.keys.append(6)
    assert master.keys == [5]
    assert cluster.execute(acc.read_node(ptr)) is master


def test_channel_reserve_schedules_no_events():
    """``BandwidthChannel.reserve`` is pure bookkeeping: reserving a slot
    on an idle or busy line must not schedule simulator events (the
    fast-path verbs rely on one event per leg, in the sleep only)."""
    sim = Simulator()
    channel = BandwidthChannel(sim, rate_bytes_per_s=1e9, per_message_overhead_s=1e-6)
    before = sim.events_scheduled
    first = channel.reserve(1000)
    second = channel.reserve(1000)
    assert sim.events_scheduled == before
    assert first == pytest.approx(1e-6 + 1000 / 1e9)
    assert second == pytest.approx(2 * (1e-6 + 1000 / 1e9))
    assert channel.snapshot() == (2000, 2)


# Re-capture goldens after an intentional behavioral change with:
#
#   for design in ("coarse-grained", "fine-grained", "hybrid"):
#       for batched in (True, False):
#           cluster, result = _run_cell(design, batched)
#           print(design, batched, cluster.sim.events_scheduled,
#                 _fingerprint(result))
