"""Differential testing: all three designs must agree with each other.

The designs differ only in page placement and transport; their observable
behaviour must be identical. Each random operation sequence is executed
against CG, FG, hybrid, and the standalone in-memory tree, and every
result is cross-checked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
)
from repro.btree import BLinkTree
from repro.btree.inmemory import InMemoryAccessor, InMemoryRootRef, drive
from repro.workloads import generate_dataset


def _distributed_rigs():
    dataset = generate_dataset(30, gap=4)
    rigs = []
    for cls in (CoarseGrainedIndex, FineGrainedIndex, HybridIndex):
        cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=2))
        if cls is FineGrainedIndex:
            index = cls.build(cluster, "d", *dataset.columns())
        else:
            index = cls.build(
                cluster, "d", *dataset.columns(), key_space=dataset.key_space
            )
        rigs.append((cluster, index.session(cluster.new_compute_server())))
    return dataset, rigs


def _reference_tree(dataset):
    accessor = InMemoryAccessor(page_size=256)
    tree = BLinkTree(accessor, InMemoryRootRef(accessor))
    for key, value in dataset.pairs():
        drive(tree.insert(key, value))
    return tree


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete", "lookup", "scan"]),
            st.integers(min_value=0, max_value=130),
        ),
        max_size=40,
    )
)
def test_designs_agree_on_every_operation(ops):
    dataset, rigs = _distributed_rigs()
    reference = _reference_tree(dataset)
    seq = 500
    for op, key in ops:
        if op == "insert":
            for cluster, session in rigs:
                cluster.execute(session.insert(key, seq))
            drive(reference.insert(key, seq))
            seq += 1
        elif op == "update":
            answers = [
                cluster.execute(session.update(key, seq))
                for cluster, session in rigs
            ]
            answers.append(drive(reference.update(key, seq)))
            assert len(set(answers)) == 1, (op, key, answers)
            seq += 1
        elif op == "delete":
            answers = [
                cluster.execute(session.delete(key))
                for cluster, session in rigs
            ]
            answers.append(drive(reference.delete(key)))
            assert len(set(answers)) == 1, (op, key, answers)
        elif op == "lookup":
            answers = [
                tuple(sorted(cluster.execute(session.lookup(key))))
                for cluster, session in rigs
            ]
            answers.append(tuple(sorted(drive(reference.lookup(key)))))
            assert len(set(answers)) == 1, (op, key, answers)
        else:
            low, high = key, key + 25
            answers = [
                tuple(cluster.execute(session.range_scan(low, high)))
                for cluster, session in rigs
            ]
            answers.append(tuple(drive(reference.range_scan(low, high))))
            assert len(set(answers)) == 1, (op, key, answers)
    # Final full contents identical everywhere.
    finals = [
        tuple(cluster.execute(session.range_scan(0, 1 << 40)))
        for cluster, session in rigs
    ]
    finals.append(tuple(drive(reference.range_scan(0, 1 << 40))))
    assert len(set(finals)) == 1
