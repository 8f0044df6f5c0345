"""Model-based and adversarial tests at the distributed-index level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterConfig, FineGrainedIndex, HybridIndex, check_tree
from repro.errors import TimeoutError_
from repro.rdma.faults import FaultPlan
from repro.workloads import check_history, generate_dataset
from tests.test_checker import issued, session_calls


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
    sorted multimap (the checker's model, as in the in-memory algorithm
    test, but exercising QPs, RPC handlers, allocators and remote
    pointers)."""
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=1))
    dataset = generate_dataset(40, gap=4)
    if design == "fine-grained":
        index = FineGrainedIndex.build(cluster, "prop", *dataset.columns())
    else:
        index = HybridIndex.build(
            cluster, "prop", *dataset.columns(), key_space=dataset.key_space
        )
    session = index.session(cluster.new_compute_server())

    history = []
    for call in session_calls(ops):
        issued(history, cluster.execute, session, *call)
    assert check_history(history, dataset.pairs()) == []


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
def test_index_under_faults_is_linearizable(ops, plan_seed):
    """Random op sequences with injected message faults are linearizable.

    A faulted operation raises a typed error with its outcome unknown —
    the transport applies effects at most once, so each attempted op was
    applied zero or one times, which is how the checker takes an op that
    ended in a typed error. The quiet full scan afterwards is checked as a
    read of every key.
    """
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=2))
    dataset = generate_dataset(40, gap=4)
    index = FineGrainedIndex.build(cluster, "prop", *dataset.columns())
    injector = cluster.attach_faults(
        FaultPlan(
            seed=plan_seed,
            drop_probability=0.03,
            delay_probability=0.05,
            duplicate_probability=0.02,
        )
    )
    session = index.session(cluster.new_compute_server())

    history = []
    for call in session_calls(ops):
        try:
            issued(history, cluster.execute, session, *call)
        except TimeoutError_ as exc:
            history[-1].result = exc

    # Quiesce, check the history against the quiet scan, then check that
    # the structural invariants survived the chaos.
    injector.quiesce()
    scan = cluster.execute(session.range_scan(0, dataset.key_space + 200))
    assert check_history(history, dataset.pairs(), scan) == []
    report = cluster.execute(
        check_tree(index.tree_for(cluster.new_compute_server()))
    )
    assert report.ok, report.violations


class TestStalePointers:
    """The hybrid's traversal RPC may return a leaf pointer that is stale
    by the time the client uses it; move-right must recover."""

    @pytest.fixture
    def rig(self):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=4))
        dataset = generate_dataset(200, gap=4)
        index = HybridIndex.build(
            cluster, "idx", *dataset.columns(), key_space=dataset.key_space
        )
        session = index.session(cluster.new_compute_server())
        return cluster, dataset, index, session

    @staticmethod
    def _answer_traversals_with(handle, stale_ptr):
        """Make *handle*'s traversal RPC return *stale_ptr* whatever the
        owner would say now; every other request still goes out."""
        real_call = handle._call

        def call(partition, op, *args):
            if op == "traverse":
                return stale_ptr
            return (yield from real_call(partition, op, *args))

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
    index = FineGrainedIndex.build(cluster, "idx", *dataset.columns())
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
    tree = index.tree_for(compute)
    report = cluster.execute(check_tree(tree))
    assert report.ok, report.violations
    assert report.entries > dataset.num_keys / 2
    assert cluster.execute(tree.height()) >= 2
