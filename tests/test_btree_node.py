"""Tests for the page layout and node operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import (
    HEADER_BYTES,
    MAX_KEY,
    TOMBSTONE_BIT,
    Node,
    NodeType,
    encode_leaves,
    fanout,
    is_tombstoned,
    strip_tombstone,
)
from repro.btree.pointers import NULL_RAW, encode_pointer
from repro.errors import IndexError_


def test_fanout_of_default_page():
    assert fanout(1024) == (1024 - HEADER_BYTES) // 16


def test_fanout_rejects_tiny_pages():
    with pytest.raises(IndexError_):
        fanout(64)


def test_serialization_roundtrip():
    node = Node(
        NodeType.LEAF,
        level=0,
        version=6,
        right=encode_pointer(2, 2048),
        head=encode_pointer(1, 1024),
        high_key=500,
        keys=[1, 2, 3],
        values=[10, 20, 30],
    )
    decoded = Node.from_bytes(node.to_bytes(512))
    assert decoded.keys == [1, 2, 3]
    assert decoded.values == [10, 20, 30]
    assert decoded.version == 6
    assert decoded.right == node.right
    assert decoded.head == node.head
    assert decoded.high_key == 500
    assert decoded.level == 0
    assert decoded.is_leaf


def test_page_image_has_exact_size():
    node = Node(NodeType.INNER, level=2)
    assert len(node.to_bytes(1024)) == 1024


def test_overfull_node_rejected_at_serialization():
    capacity = fanout(256)
    node = Node(NodeType.LEAF, 0, keys=list(range(capacity + 1)),
                values=list(range(capacity + 1)))
    with pytest.raises(IndexError_):
        node.to_bytes(256)


def test_mismatched_keys_values_rejected():
    node = Node(NodeType.LEAF, 0, keys=[1], values=[])
    with pytest.raises(IndexError_):
        node.to_bytes(256)


def test_truncated_image_rejected():
    with pytest.raises(IndexError_):
        Node.from_bytes(b"\x00" * 10)


def test_lock_bit_detection():
    node = Node(NodeType.LEAF, 0, version=4)
    assert not node.is_locked
    node.version |= 1
    assert node.is_locked


class TestSearch:
    def test_find_child_routes_by_fences(self):
        node = Node(NodeType.INNER, 1, keys=[0, 100, 200],
                    values=[1000, 1001, 1002], high_key=300)
        assert node.find_child(0) == 1000
        assert node.find_child(99) == 1000
        assert node.find_child(100) == 1001
        assert node.find_child(250) == 1002

    def test_leaf_matches_returns_all_duplicates(self):
        node = Node(NodeType.LEAF, 0, keys=[5, 7, 7, 7, 9],
                    values=[50, 70, 71, 72, 90])
        assert node.leaf_matches(7) == [70, 71, 72]
        assert node.leaf_matches(5) == [50]
        assert node.leaf_matches(6) == []

    def test_leaf_matches_skips_tombstones(self):
        node = Node(NodeType.LEAF, 0, keys=[7, 7],
                    values=[70 | TOMBSTONE_BIT, 71])
        assert node.leaf_matches(7) == [71]

    def test_insert_entry_keeps_order(self):
        node = Node(NodeType.LEAF, 0, keys=[1, 5], values=[10, 50])
        node.insert_entry(3, 30)
        assert node.keys == [1, 3, 5]
        assert node.values == [10, 30, 50]

    def test_insert_duplicate_appends_after_existing(self):
        node = Node(NodeType.LEAF, 0, keys=[3], values=[30])
        node.insert_entry(3, 31)
        assert node.values == [30, 31]

    def test_covers_is_exclusive_of_high_key(self):
        node = Node(NodeType.LEAF, 0, high_key=100)
        assert node.covers(99)
        assert not node.covers(100)


class TestSplit:
    def test_split_preserves_entries_and_links(self):
        right_ptr = encode_pointer(3, 4096)
        node = Node(NodeType.LEAF, 0, right=right_ptr, high_key=1000,
                    keys=list(range(10)), values=list(range(10, 20)))
        sibling, split_key = node.split()
        assert node.keys + sibling.keys == list(range(10))
        assert node.values + sibling.values == list(range(10, 20))
        assert node.high_key == split_key == sibling.keys[0]
        assert sibling.high_key == 1000
        assert sibling.right == right_ptr

    def test_split_avoids_straddling_duplicates(self):
        node = Node(NodeType.LEAF, 0, keys=[1, 5, 5, 5, 5, 9],
                    values=list(range(6)), high_key=MAX_KEY)
        _sibling, split_key = node.split()
        assert split_key in (5, 9)
        # No key appears on both sides.
        assert not (set(node.keys) & set(_sibling.keys))

    def test_split_all_equal_raises(self):
        node = Node(NodeType.LEAF, 0, keys=[5] * 6, values=list(range(6)))
        with pytest.raises(IndexError_, match="equal keys"):
            node.split()


def test_tombstone_helpers():
    assert is_tombstoned(5 | TOMBSTONE_BIT)
    assert not is_tombstoned(5)
    assert strip_tombstone(5 | TOMBSTONE_BIT) == 5


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_KEY - 1),
            st.integers(min_value=0, max_value=(1 << 63) - 1),
        ),
        max_size=fanout(1024),
    ),
    version=st.integers(min_value=0, max_value=(1 << 62)),
    level=st.integers(min_value=0, max_value=255),
)
def test_serialization_roundtrip_property(entries, version, level):
    """Any in-capacity node survives to_bytes/from_bytes unchanged."""
    entries.sort()
    node = Node(
        NodeType.LEAF,
        level=level,
        version=version,
        keys=[k for k, _ in entries],
        values=[v for _, v in entries],
    )
    decoded = Node.from_bytes(node.to_bytes(1024))
    assert decoded.keys == node.keys
    assert decoded.values == node.values
    assert decoded.version == version
    assert decoded.level == level


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=2, max_size=40
    )
)
def test_split_property(keys):
    """Splits preserve the multiset of entries and key ordering, and never
    strand a duplicate run across the fence (unless all keys are equal)."""
    keys.sort()
    node = Node(NodeType.LEAF, 0, keys=list(keys),
                values=list(range(len(keys))), high_key=MAX_KEY)
    if keys[0] == keys[-1]:
        with pytest.raises(IndexError_):
            node.split()
        return
    sibling, split_key = node.split()
    assert node.keys + sibling.keys == keys
    assert all(k < split_key for k in node.keys)
    assert all(k >= split_key for k in sibling.keys)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=fanout(200)), min_size=1, max_size=6),
    page_size=st.sampled_from([200, 256, 1024]),
    data=st.data(),
)
def test_encode_leaves_matches_to_bytes(counts, page_size, data):
    """Every row of the vectorised leaf encoder is the image ``to_bytes``
    makes of the same leaf (the loop it replaced stays as the reference),
    at page sizes with and without a partial last word."""
    total = sum(counts)
    keys = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=MAX_KEY - 1), min_size=total, max_size=total)))
    values = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << 63) - 1), min_size=total, max_size=total))
    pointer = st.one_of(st.just(NULL_RAW), st.integers(min_value=1, max_value=(1 << 56) - 1))
    rights = data.draw(st.lists(pointer, min_size=len(counts), max_size=len(counts)))
    heads = data.draw(st.lists(pointer, min_size=len(counts), max_size=len(counts)))
    high_keys = data.draw(st.lists(
        st.integers(min_value=0, max_value=MAX_KEY), min_size=len(counts), max_size=len(counts)))
    bounds = [0]
    for count in counts:
        bounds.append(bounds[-1] + count)
    pages = encode_leaves(page_size, keys, values, bounds, rights, heads, high_keys)
    assert pages.shape == (len(counts), page_size)
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        node = Node(NodeType.LEAF, 0, right=rights[i], head=heads[i], high_key=high_keys[i],
                    keys=keys[start:end], values=values[start:end])
        assert pages[i].tobytes() == node.to_bytes(page_size)
