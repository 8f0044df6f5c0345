"""Model-based and adversarial tests at the distributed-index level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterConfig, FineGrainedIndex, HybridIndex
from repro.errors import TimeoutError_
from repro.nam import rpc
from repro.rdma.faults import FaultPlan
from repro.workloads import generate_dataset


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete", "lookup", "scan"]),
            st.integers(min_value=0, max_value=120),
        ),
        max_size=60,
    ),
    design=st.sampled_from(["fine-grained", "hybrid"]),
)
def test_distributed_index_matches_sorted_multimap(ops, design):
    """Random op sequences through the full RDMA stack behave like a
    sorted multimap (same model as the in-memory algorithm test, but
    exercising QPs, RPC handlers, allocators and remote pointers)."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
    dataset = generate_dataset(40, gap=4)
    if design == "fine-grained":
        index = FineGrainedIndex.build(cluster, "prop", dataset.pairs())
    else:
        index = HybridIndex.build(
            cluster, "prop", dataset.pairs(), key_space=dataset.key_space
        )
    session = index.session(cluster.new_compute_server())

    model = {key: [ordinal] for key, ordinal in dataset.pairs()}
    seq = 1000
    for op, key in ops:
        if op == "insert":
            cluster.execute(session.insert(key, seq))
            model.setdefault(key, []).append(seq)
            seq += 1
        elif op == "update":
            found = cluster.execute(session.update(key, seq))
            assert found == bool(model.get(key))
            if model.get(key):
                model[key][0] = seq
            seq += 1
        elif op == "delete":
            found = cluster.execute(session.delete(key))
            assert found == bool(model.get(key))
            if model.get(key):
                model[key].pop(0)
        elif op == "lookup":
            got = sorted(cluster.execute(session.lookup(key)))
            assert got == sorted(model.get(key, []))
        else:
            low, high = sorted((key, key + 40))
            got = cluster.execute(session.range_scan(low, high))
            expected = sorted(
                (k, payload)
                for k, payloads in model.items()
                if low <= k < high
                for payload in payloads
            )
            assert sorted(got) == expected


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete", "lookup", "scan"]),
            st.integers(min_value=0, max_value=120),
        ),
        max_size=40,
    ),
    plan_seed=st.integers(min_value=0, max_value=10_000),
)
def test_index_under_faults_matches_uncertainty_oracle(ops, plan_seed):
    """Random op sequences with injected message faults, against an oracle
    that tracks *uncertainty*.

    A faulted operation raises a typed error with its outcome unknown —
    the transport applies effects at most once, so each attempted op was
    applied zero or one times. The oracle therefore keeps, per key, the
    set of values ``certain``ly present and the set of values that ``may``
    be present; every observed state must lie between the two bounds, and
    any op touching a key under uncertainty widens its bounds instead of
    asserting exactly.
    """
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=2))
    dataset = generate_dataset(40, gap=4)
    index = FineGrainedIndex.build(cluster, "prop", dataset.pairs())
    injector = cluster.attach_faults(
        FaultPlan(
            seed=plan_seed,
            drop_probability=0.03,
            delay_probability=0.05,
            duplicate_probability=0.02,
        )
    )
    session = index.session(cluster.new_compute_server())

    certain = {key: {value} for key, value in dataset.pairs()}
    maybe = {key: set() for key, value in dataset.pairs()}

    def bounds(key):
        lo = certain.get(key, set())
        return lo, lo | maybe.get(key, set())

    seq = 1000
    for op, key in ops:
        lo, hi = bounds(key)
        try:
            if op == "insert":
                cluster.execute(session.insert(key, seq))
                certain.setdefault(key, set()).add(seq)
                maybe.setdefault(key, set())
            elif op == "update":
                found = cluster.execute(session.update(key, seq))
                # `found` is only fully determined when the key's presence
                # is certain either way.
                if lo:
                    assert found
                elif not hi:
                    assert not found
                if found:
                    # One value (which one is unknowable under faults)
                    # became seq; everything else is now only "maybe".
                    maybe[key] = (lo | maybe.get(key, set())) - {seq}
                    certain[key] = {seq}
            elif op == "delete":
                found = cluster.execute(session.delete(key))
                if lo:
                    assert found
                elif not hi:
                    assert not found
                if found:
                    # One unknowable value was removed.
                    maybe[key] = lo | maybe.get(key, set())
                    certain[key] = set()
            elif op == "lookup":
                got = set(cluster.execute(session.lookup(key)))
                assert lo <= got <= hi
            else:
                low, high = sorted((key, key + 40))
                got = cluster.execute(session.range_scan(low, high))
                by_key = {}
                for k, v in got:
                    by_key.setdefault(k, set()).add(v)
                for k in set(certain) | set(by_key):
                    if low <= k < high:
                        k_lo, k_hi = bounds(k)
                        assert k_lo <= by_key.get(k, set()) <= k_hi
        except TimeoutError_:
            # Outcome unknown: the op was applied zero or one times.
            # Widen the touched key's bounds accordingly.
            if op == "insert":
                maybe.setdefault(key, set()).add(seq)
                certain.setdefault(key, set())
            elif op == "update":
                if hi:
                    maybe[key] = lo | maybe[key] | {seq}
                    certain[key] = set()
            elif op == "delete":
                if hi and key in certain:
                    maybe[key] |= certain[key]
                    certain[key] = set()
        if op in ("insert", "update"):
            seq += 1

    # Quiesce and verify the final state lies within the oracle's bounds,
    # then check structural invariants survived the chaos.
    injector.quiesce()
    scan = cluster.execute(session.range_scan(0, dataset.key_space + 200))
    by_key = {}
    for k, v in scan:
        by_key.setdefault(k, set()).add(v)
    for k in set(certain) | set(by_key):
        k_lo, k_hi = bounds(k)
        assert k_lo <= by_key.get(k, set()) <= k_hi
    cluster.execute(
        index.tree_for(cluster.new_compute_server()).validate()
    )


class TestStalePointers:
    """The hybrid's traversal RPC may return a leaf pointer that is stale
    by the time the client uses it; move-right must recover."""

    @pytest.fixture
    def rig(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=4))
        dataset = generate_dataset(200, gap=4)
        index = HybridIndex.build(
            cluster, "idx", dataset.pairs(), key_space=dataset.key_space
        )
        session = index.session(cluster.new_compute_server())
        return cluster, dataset, index, session

    @staticmethod
    def _answer_traversals_with(handle, stale_ptr):
        """Make *handle*'s traversal RPC return *stale_ptr* whatever the
        owner would say now; every other request still goes out."""
        real_call = handle._call

        def call(partition, request):
            if isinstance(request, rpc.TraverseRequest):
                return rpc.PointerResponse(stale_ptr)
            return (yield from real_call(partition, request))

        handle._call = call

    def test_leaf_ops_through_stale_pointer(self, rig):
        cluster, dataset, index, session = rig
        # Capture a leaf pointer, then split that leaf repeatedly.
        handle = session._trees[index.partitioner.server_for_key(0)]
        stale_ptr, _leaf = cluster.execute(handle._find_leaf(0))
        for i in range(120):
            cluster.execute(session.insert(1 + (i % 7), 5000 + i))
        # Directly drive the move-right step through the stale pointer: it
        # must reach the correct (post-split) leaf.
        # Keys must stay inside partition 0: leaf chains are per-partition.
        stale = cluster.execute(handle._read_unlocked(stale_ptr))
        assert not stale.covers(200)
        _ptr, leaf = cluster.execute(
            handle._descend_from(stale_ptr, stale, 200, 0)
        )
        assert leaf.leaf_matches(200) == [50]
        # ... and the handle's operations, their traversal answered with it.
        self._answer_traversals_with(handle, stale_ptr)
        assert cluster.execute(handle.lookup(200)) == [50]
        pairs = cluster.execute(handle.range_scan(196, 212))
        assert [k for k, _ in pairs] == [196, 200, 204, 208]

    def test_insert_at_through_stale_pointer(self, rig):
        cluster, dataset, index, session = rig
        handle = session._trees[index.partitioner.server_for_key(0)]
        stale_ptr, _leaf = cluster.execute(handle._find_leaf(0))
        for i in range(120):
            cluster.execute(session.insert(1 + (i % 5), 5000 + i))
        self._answer_traversals_with(handle, stale_ptr)
        cluster.execute(handle.insert(399, 777))
        fresh = index.session(cluster.new_compute_server())
        assert 777 in cluster.execute(fresh.lookup(399))


def test_concurrent_mixed_ops_preserve_invariants():
    """A heavier randomized concurrency run, validated structurally."""
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=8))
    dataset = generate_dataset(1_000, gap=8)
    index = FineGrainedIndex.build(cluster, "idx", dataset.pairs())
    compute = cluster.new_compute_server()

    def client(cid):
        rng = np.random.default_rng(cid)
        session = index.session(compute)
        for i in range(60):
            key = int(rng.integers(0, dataset.key_space))
            kind = rng.random()
            if kind < 0.4:
                yield from session.insert(key, cid * 1000 + i)
            elif kind < 0.55:
                yield from session.delete(key)
            elif kind < 0.7:
                yield from session.update(key, cid * 1000 + i)
            elif kind < 0.9:
                yield from session.lookup(key)
            else:
                yield from session.range_scan(key, key + 200)

    procs = [cluster.spawn(client(cid)) for cid in range(24)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    stats = cluster.execute(index.tree_for(compute).validate())
    assert stats["entries"] > dataset.num_keys / 2
    assert stats["height"] >= 2
