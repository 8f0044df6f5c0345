"""The three distributed index designs plus shared machinery."""

from typing import Dict, Type

from repro.index.accessors import (
    LocalAccessor,
    LocalRootRef,
    RemoteAccessor,
    RemoteRootRef,
)
from repro.index.base import DistributedIndex, IndexSession
from repro.index.caching import CachingRemoteAccessor
from repro.index.coarse_grained import CoarseGrainedIndex, CoarseGrainedSession
from repro.index.fine_grained import FineGrainedIndex, FineGrainedSession
from repro.index.gc import EpochGarbageCollector
from repro.index.hybrid import HybridIndex, HybridSession
from repro.index.verify import VerifyReport, check_tree, verify_index
from repro.index.partitioning import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    RoundRobinPartitioner,
)

#: Design name -> index class, as experiments and histories name them.
DESIGNS: Dict[str, Type[DistributedIndex]] = {
    "coarse-grained": CoarseGrainedIndex,
    "fine-grained": FineGrainedIndex,
    "hybrid": HybridIndex,
}

__all__ = [
    "DESIGNS",
    "LocalAccessor",
    "LocalRootRef",
    "RemoteAccessor",
    "RemoteRootRef",
    "DistributedIndex",
    "IndexSession",
    "CachingRemoteAccessor",
    "CoarseGrainedIndex",
    "CoarseGrainedSession",
    "FineGrainedIndex",
    "FineGrainedSession",
    "EpochGarbageCollector",
    "HybridIndex",
    "HybridSession",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "RoundRobinPartitioner",
    "VerifyReport",
    "check_tree",
    "verify_index",
]
