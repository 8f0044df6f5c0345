"""Coherence proofs for the client-side index cache (docs/caching.md).

Three layers of evidence that the coherent
:class:`repro.index.caching.CachingRemoteAccessor` never changes what an
operation observes:

* a **differential oracle** — scripted op sequences through every
  design at every cache depth must produce outcomes byte-identical to
  the uncached run, with the structural verifier clean afterwards;
  coarse-grained and hybrid sessions leave the cache configuration
  unread, so for them depth builds no caching accessor and counts no
  cache event;
* **property tests** — randomized (hypothesis) insert/split workloads
  where a cached reader races a writer; the history must be linearizable
  against the checker's sorted multimap, i.e. no stale leaf read ever
  returns a deleted or superseded value;
* a **chaos test** — a mixed workload with message faults, a destructive
  server crash and replication failover on top of the cache, verified
  structurally and for replica convergence (also exercised under
  ``--namsan`` in CI).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CacheConfig,
    Cluster,
    ClusterConfig,
    FaultPlan,
    FineGrainedIndex,
    ServerCrash,
    verify_index,
)
from repro.index import DESIGNS
from repro.index.caching import CachingRemoteAccessor
from repro.obs import ObservabilityConfig
from repro.workloads import WorkloadRunner, WorkloadSpec, check_history, generate_dataset
from tests.test_checker import issued, session_calls

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.ConfigurationWarning"
)

DEPTHS = (0, 1, 2, 3)

#: The hub's cache counters: the cache's one ledger.
CACHE_COUNTERS = tuple(
    f"nam_cache_{name}_total"
    for name in ("hits", "misses", "revalidations", "revalidation_misses",
                 "invalidations")
)


def _script(seed: int, key_space: int, n_ops: int = 160):
    """A deterministic op script replayed identically for every config."""
    rng = random.Random(seed)
    ops = []
    seq = 10_000
    for _ in range(n_ops):
        kind = rng.choices(
            ["insert", "update", "delete", "lookup", "scan"],
            weights=[30, 10, 10, 35, 15],
        )[0]
        key = rng.randrange(0, key_space)
        ops.append((kind, key, seq))
        seq += 1
    return ops


def _build(design: str, depth: int, dataset, seed: int = 5):
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            seed=seed,
            cache=CacheConfig(depth=depth),
            observability=ObservabilityConfig(enabled=True),
        )
    )
    options = {} if design == "fine-grained" else {"key_space": dataset.key_space}
    index = DESIGNS[design].build(cluster, "idx", *dataset.columns(), **options)
    return cluster, index


def _cache_counters(cluster):
    registry = cluster.obs.registry
    return {name: registry.counter(name).value for name in CACHE_COUNTERS}


def _replay(cluster, session, ops):
    """Apply *ops* serially; the outcome list is the differential signal."""
    outcomes = []
    for kind, key, seq in ops:
        if kind == "insert":
            cluster.execute(session.insert(key, seq))
            outcomes.append(("insert", key, seq))
        elif kind == "update":
            outcomes.append(
                ("update", key, cluster.execute(session.update(key, seq)))
            )
        elif kind == "delete":
            outcomes.append(("delete", key, cluster.execute(session.delete(key))))
        elif kind == "lookup":
            outcomes.append(
                ("lookup", key, sorted(cluster.execute(session.lookup(key))))
            )
        else:
            got = cluster.execute(session.range_scan(key, key + 64))
            outcomes.append(("scan", key, sorted(got)))
    return outcomes


@pytest.mark.parametrize("design", ["fine-grained", "hybrid", "coarse-grained"])
def test_differential_oracle_across_depths(design):
    """Every cache depth observes exactly what the uncached run observes.

    The insert weight is high enough that the script splits leaves and
    installs separators (bumping the structure epoch), so cached inner
    images really do go stale mid-script and must be revalidated — not
    merely never re-read. Coarse-grained and hybrid sessions leave
    ``CacheConfig`` unread: at every depth they build no caching accessor
    and count no cache event.
    """
    dataset = generate_dataset(300, gap=4)
    ops = _script(seed=97, key_space=dataset.key_space)
    baseline = None
    for depth in DEPTHS:
        cluster, index = _build(design, depth, dataset)
        session = index.session(cluster.new_compute_server())
        outcomes = _replay(cluster, session, ops)
        if baseline is None:
            baseline = outcomes
        else:
            assert outcomes == baseline, f"{design} depth={depth} diverged"
        report = verify_index(cluster, index)
        assert report.ok, report.violations
        counters = _cache_counters(cluster)
        if design != "fine-grained":
            assert not any(
                isinstance(getattr(handle, "acc", None), CachingRemoteAccessor)
                for handle in session._trees.values()
            )
            assert set(counters.values()) == {0}
        elif depth > 0:
            # The run must actually have exercised the cache.
            assert isinstance(session._tree.acc, CachingRemoteAccessor)
            assert counters["nam_cache_hits_total"] > 0


def test_differential_oracle_two_sessions_fine_grained():
    """A cached reader interleaved with a separate writer session sees
    the same outcomes as an uncached reader under the same interleaving:
    cross-session coherence, not just self-invalidated writes."""
    dataset = generate_dataset(300, gap=4)
    ops = _script(seed=31, key_space=dataset.key_space, n_ops=200)
    baseline = None
    for depth in DEPTHS:
        cluster, index = _build("fine-grained", depth, dataset)
        reader = index.session(cluster.new_compute_server())
        writer = index.session(cluster.new_compute_server())
        outcomes = []
        for kind, key, seq in ops:
            if kind in ("insert", "update", "delete"):
                outcomes.extend(_replay(cluster, writer, [(kind, key, seq)]))
            else:
                outcomes.extend(_replay(cluster, reader, [(kind, key, seq)]))
        if baseline is None:
            baseline = outcomes
        else:
            assert outcomes == baseline, f"two-session depth={depth} diverged"
        report = verify_index(cluster, index)
        assert report.ok, report.violations


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete", "lookup", "scan"]),
            st.integers(min_value=0, max_value=160),
        ),
        max_size=60,
    ),
    depth=st.sampled_from([1, 2, 3]),
)
def test_cached_index_matches_sorted_multimap(ops, depth):
    """Random op sequences through a *cached* reader racing a writer
    behave like a sorted multimap: no read ever returns a deleted or
    superseded value, no matter what the cache holds."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2, seed=1, cache=CacheConfig(depth=depth)
        )
    )
    dataset = generate_dataset(40, gap=4)
    index = FineGrainedIndex.build(cluster, "prop", *dataset.columns())
    reader = index.session(cluster.new_compute_server())
    writer = index.session(cluster.new_compute_server())

    history = []
    for call in session_calls(ops):
        session = reader if call[0] in ("lookup", "range_scan") else writer
        issued(history, cluster.execute, session, *call)
    assert check_history(history, dataset.pairs()) == []
    report = verify_index(cluster, index)
    assert report.ok, report.violations


@settings(max_examples=8, deadline=None)
@given(
    burst_at=st.integers(min_value=0, max_value=6),
    probe=st.integers(min_value=0, max_value=39),
    depth=st.sampled_from([2, 3]),
)
def test_split_bursts_never_serve_stale_reads(burst_at, probe, depth):
    """Insert bursts force leaf and inner splits under a warmed cache;
    a delete observed through the cached session must stay deleted and
    old values must never resurface."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2, seed=3, cache=CacheConfig(depth=depth)
        )
    )
    dataset = generate_dataset(40, gap=4)
    index = FineGrainedIndex.build(cluster, "prop", *dataset.columns())
    session = index.session(cluster.new_compute_server())

    # Warm the cache across the key space.
    for i in range(0, 40, 3):
        cluster.execute(session.lookup(dataset.key_at(i)))

    probe_key = dataset.key_at(probe)
    assert cluster.execute(session.lookup(probe_key)) == [probe]
    assert cluster.execute(session.delete(probe_key))

    # Split storm around one spot: grows the tree, bumps the epoch.
    hot = dataset.key_at(burst_at)
    for i in range(180):
        cluster.execute(session.insert(hot + 1 + (i % 3), 5000 + i))

    # The deleted value must not resurface through any cached image.
    assert cluster.execute(session.lookup(probe_key)) == []
    cluster.execute(session.insert(probe_key, 777))
    assert cluster.execute(session.lookup(probe_key)) == [777]
    report = verify_index(cluster, index)
    assert report.ok, report.violations


def test_cached_chaos_workload_with_replication_failover():
    """The full stack at once: cached sessions (depth 2), message drops /
    delays / duplicates, a destructive server crash and restart at
    replication factor 2. Typed errors only; verifier clean; replicas
    byte-converged. CI also runs this under ``--namsan``."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=3,
            memory_servers_per_machine=1,
            replication_factor=2,
            clients_per_compute_server=8,
            seed=43,
            cache=CacheConfig(depth=2),
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
    injector = cluster.attach_faults(
        FaultPlan(
            seed=13,
            drop_probability=0.02,
            delay_probability=0.05,
            delay_s=30e-6,
            duplicate_probability=0.02,
            server_crashes=(ServerCrash(1, at_s=0.004, down_for_s=0.002),),
        )
    )
    spec = WorkloadSpec(
        name="cache-chaos-mix",
        point_fraction=0.5,
        range_fraction=0.1,
        insert_fraction=0.3,
        delete_fraction=0.1,
        selectivity=0.005,
    )
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, spec, num_clients=8, warmup_s=0.001, measure_s=0.009, seed=17
    )
    assert result.total_ops > 0
    assert injector.stats["server_crashes"] == 1
    assert injector.stats["server_restarts"] == 1
    assert all(name == "RetriesExhaustedError" for name in result.errors)

    injector.quiesce()
    session = index.session(cluster.new_compute_server())
    scan = cluster.execute(session.range_scan(0, dataset.key_space * 2))
    keys = [key for key, _value in scan]
    assert keys == sorted(keys)
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    cluster.replication.assert_replicas_converged()
