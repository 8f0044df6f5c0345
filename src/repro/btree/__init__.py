"""B-link tree substrate: page layout, pointers, algorithms, bulk loading."""

from repro.btree.accessor import NodeAccessor, RootRef
from repro.btree.algorithm import BLinkTree
from repro.btree.bulk import BulkLoadResult, bulk_load, key_columns
from repro.btree.node import (
    HEADER_BYTES,
    MAX_KEY,
    TOMBSTONE_BIT,
    Node,
    NodeType,
    fanout,
    is_tombstoned,
    strip_tombstone,
)
from repro.btree.pointers import NULL_RAW, RemotePointer, encode_pointer, is_null

__all__ = [
    "NodeAccessor",
    "RootRef",
    "BLinkTree",
    "BulkLoadResult",
    "bulk_load",
    "key_columns",
    "HEADER_BYTES",
    "MAX_KEY",
    "TOMBSTONE_BIT",
    "Node",
    "NodeType",
    "fanout",
    "is_tombstoned",
    "strip_tombstone",
    "NULL_RAW",
    "RemotePointer",
    "encode_pointer",
    "is_null",
]
