"""Tests for the B-link tree algorithms (standalone, in-memory accessor)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check_tree
from repro.btree import BLinkTree, MAX_KEY, is_null
from repro.btree.inmemory import InMemoryAccessor, InMemoryRootRef, drive
from repro.errors import IndexError_
from repro.workloads import check_history
from tests.test_checker import issued


def make_tree(page_size=256):
    acc = InMemoryAccessor(page_size=page_size)
    return BLinkTree(acc, InMemoryRootRef(acc)), acc


class TestBasicOperations:
    def test_empty_tree_lookup(self):
        tree, _ = make_tree()
        assert drive(tree.lookup(5)) == []

    def test_insert_and_lookup(self):
        tree, _ = make_tree()
        drive(tree.insert(5, 50))
        assert drive(tree.lookup(5)) == [50]
        assert drive(tree.lookup(6)) == []

    def test_duplicates_within_page(self):
        tree, _ = make_tree()
        for payload in range(5):
            drive(tree.insert(7, 100 + payload))
        assert sorted(drive(tree.lookup(7))) == [100, 101, 102, 103, 104]

    def test_key_zero_and_large_keys(self):
        tree, _ = make_tree()
        drive(tree.insert(0, 1))
        drive(tree.insert(MAX_KEY - 1, 2))
        assert drive(tree.lookup(0)) == [1]
        assert drive(tree.lookup(MAX_KEY - 1)) == [2]

    def test_max_key_rejected(self):
        tree, _ = make_tree()
        with pytest.raises(IndexError_):
            drive(tree.insert(MAX_KEY, 1))

    def test_tombstone_bit_payload_rejected(self):
        tree, _ = make_tree()
        with pytest.raises(IndexError_):
            drive(tree.insert(1, 1 << 63))


class TestSplitsAndGrowth:
    def test_inserts_force_leaf_and_root_splits(self):
        tree, acc = make_tree(page_size=256)  # fanout 13
        n = 500
        for key in range(n):
            drive(tree.insert(key, key * 10))
        assert drive(tree.height()) >= 3
        for key in (0, 1, 250, 499):
            assert drive(tree.lookup(key)) == [key * 10]
        report = drive(check_tree(tree))
        assert report.ok, report.violations
        assert report.entries == n

    def test_reverse_order_inserts(self):
        tree, _ = make_tree(page_size=256)
        for key in reversed(range(300)):
            drive(tree.insert(key, key))
        report = drive(check_tree(tree))
        assert report.ok, report.violations
        assert report.entries == 300
        assert drive(tree.lookup(0)) == [0]
        assert drive(tree.lookup(299)) == [299]

    def test_random_order_inserts(self):
        import random

        tree, _ = make_tree(page_size=256)
        keys = list(range(400))
        random.Random(5).shuffle(keys)
        for key in keys:
            drive(tree.insert(key, key + 1))
        report = drive(check_tree(tree))
        assert report.ok, report.violations
        assert report.entries == 400
        scan = drive(tree.range_scan(0, 400))
        assert scan == [(key, key + 1) for key in range(400)]

    def test_duplicate_run_capped_at_one_page(self):
        tree, acc = make_tree(page_size=256)
        capacity = tree.max_entries
        for payload in range(capacity):
            drive(tree.insert(9, payload))
        with pytest.raises(IndexError_, match="duplicate run"):
            drive(tree.insert(9, capacity))

    def test_full_duplicate_page_still_splits_for_other_keys(self):
        tree, _ = make_tree(page_size=256)
        capacity = tree.max_entries
        for payload in range(capacity):
            drive(tree.insert(50, payload))
        # Inserting smaller and larger keys must still work.
        drive(tree.insert(10, 1))
        drive(tree.insert(90, 2))
        assert drive(tree.lookup(10)) == [1]
        assert drive(tree.lookup(90)) == [2]
        assert len(drive(tree.lookup(50))) == capacity
        report = drive(check_tree(tree))
        assert report.ok, report.violations


class TestRangeScan:
    def test_scan_bounds_are_half_open(self):
        tree, _ = make_tree()
        for key in range(10):
            drive(tree.insert(key, key))
        assert drive(tree.range_scan(3, 7)) == [(3, 3), (4, 4), (5, 5), (6, 6)]

    def test_empty_and_inverted_ranges(self):
        tree, _ = make_tree()
        drive(tree.insert(5, 5))
        assert drive(tree.range_scan(7, 7)) == []
        assert drive(tree.range_scan(9, 3)) == []

    def test_scan_across_many_leaves(self):
        tree, _ = make_tree(page_size=256)
        for key in range(300):
            drive(tree.insert(key, key))
        scan = drive(tree.range_scan(50, 250))
        assert scan == [(key, key) for key in range(50, 250)]

    def test_scan_skips_tombstones(self):
        tree, _ = make_tree()
        for key in range(10):
            drive(tree.insert(key, key))
        drive(tree.delete(4))
        assert (4, 4) not in drive(tree.range_scan(0, 10))


class TestDelete:
    def test_delete_returns_found(self):
        tree, _ = make_tree()
        drive(tree.insert(5, 50))
        assert drive(tree.delete(5)) is True
        assert drive(tree.delete(5)) is False
        assert drive(tree.lookup(5)) == []

    def test_delete_one_duplicate_at_a_time(self):
        tree, _ = make_tree()
        drive(tree.insert(5, 50))
        drive(tree.insert(5, 51))
        assert drive(tree.delete(5)) is True
        assert len(drive(tree.lookup(5))) == 1
        assert drive(tree.delete(5)) is True
        assert drive(tree.lookup(5)) == []

    def test_delete_then_reinsert(self):
        tree, _ = make_tree()
        drive(tree.insert(5, 50))
        drive(tree.delete(5))
        drive(tree.insert(5, 51))
        assert drive(tree.lookup(5)) == [51]


#: One corruption per check of the walk, and the violation it must report.
_CORRUPTIONS = [
    ("unsorted", "unsorted keys at level 0"),
    ("past high key", "key >= high fence at level 0"),
    ("below low fence", "key below low fence at level 0"),
    ("wrong level", "level 1 node in level-0 sibling chain"),
    ("short rightmost", "rightmost node at level 0 has high key"),
    ("cycle", "sibling cycle through"),
    ("child off the chain", "is not on the level-0 sibling chain"),
    ("head is a leaf", "is not a head node"),
]


class TestValidate:
    def test_validate_reports_structure(self):
        tree, _ = make_tree(page_size=256)
        for key in range(200):
            drive(tree.insert(key, key))
        report = drive(check_tree(tree))
        assert report.ok, report.violations
        assert report.entries == 200
        assert report.leaves > 1
        assert drive(tree.height()) >= 2
        assert report.nodes >= report.leaves

    def test_validate_counts_tombstones(self):
        tree, _ = make_tree()
        for key in range(10):
            drive(tree.insert(key, key))
        drive(tree.delete(3))
        report = drive(check_tree(tree))
        assert report.ok, report.violations
        assert report.tombstones == 1
        assert report.entries == 9

    @pytest.mark.parametrize(
        "case, violation", _CORRUPTIONS, ids=[case for case, _ in _CORRUPTIONS]
    )
    def test_walk_reports_each_violation(self, case, violation):
        tree, acc = make_tree(page_size=256)
        for key in range(40):
            drive(tree.insert(key, key))
        assert drive(check_tree(tree)).ok

        def read(raw_ptr):
            return drive(acc.read_node(raw_ptr))

        def copy_of(raw_ptr):
            copy = drive(acc.alloc(0))
            drive(acc.write_node(copy, read(raw_ptr)))
            return copy

        root_ptr = drive(tree.root.get())
        assert read(root_ptr).level == 1
        leaves = [read(root_ptr).values[0]]
        while not is_null(read(leaves[-1]).right):
            leaves.append(read(leaves[-1]).right)
        assert len(leaves) >= 3
        # case -> (page to corrupt, field, its new value from the old node)
        edits = {
            "unsorted": (leaves[1], "keys", lambda node: node.keys[::-1]),
            "past high key": (
                leaves[1], "keys", lambda node: node.keys[:-1] + [node.high_key]
            ),
            "below low fence": (
                leaves[1], "keys",
                lambda node: [read(leaves[0]).high_key - 1] + node.keys[1:],
            ),
            "wrong level": (leaves[1], "level", lambda node: 1),
            "short rightmost": (
                leaves[-1], "high_key", lambda node: node.keys[-1] + 1
            ),
            "cycle": (leaves[-1], "right", lambda node: leaves[0]),
            "child off the chain": (
                root_ptr, "values",
                lambda node: [node.values[0], copy_of(leaves[1])] + node.values[2:],
            ),
            "head is a leaf": (leaves[1], "head", lambda node: copy_of(leaves[2])),
        }
        page, name, value = edits[case]
        node = read(page)
        setattr(node, name, value(node))
        drive(acc.write_node(page, node))
        report = drive(check_tree(tree))
        assert len(report.violations) == 1, report.violations
        assert violation in report.violations[0]


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=120,
    )
)
def test_model_based_property(ops):
    """The tree behaves like a sorted multimap with tombstone deletes."""
    tree, _ = make_tree(page_size=256)
    history = []
    seq = 0
    for op, key in ops:
        if op == "insert":
            issued(history, drive, tree, op, key, seq)
            seq += 1
        else:
            issued(history, drive, tree, op, key)
    scan = drive(tree.range_scan(0, 100))
    assert scan == sorted(scan)  # payloads count up: duplicates in insertion order
    assert check_history(history, [], scan) == []
    report = drive(check_tree(tree))
    assert report.ok, report.violations
