"""Dataset generation (Section 6, "Workloads").

The paper generates data sets of monotonically increasing integer keys and
values. We space keys by a fixed *gap* so that mixed workloads can insert
fresh keys into the interior of the key space (hitting random leaves, as
YCSB inserts do) instead of hammering the rightmost leaf.

Attribute-value skew is a property of the *placement*, not the keys: for
the coarse-grained design, a skewed :class:`RangePartitioner` assigns e.g.
80/12/5/3 percent of the key space to the four servers while requests stay
uniform (Section 6.1). :func:`skew_fractions` reproduces the paper's split
for four servers and extrapolates geometrically for other cluster sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.index.partitioning import RangePartitioner

__all__ = ["Dataset", "generate_dataset", "skew_fractions", "skewed_partitioner"]

#: The paper's skewed data placement for 4 memory servers (Section 6.1).
PAPER_SKEW_4 = (0.80, 0.12, 0.05, 0.03)


@dataclass(frozen=True)
class Dataset:
    """Loaded key/value pairs plus key-space geometry."""

    num_keys: int
    gap: int

    @property
    def key_space(self) -> int:
        """Exclusive upper bound of the key domain."""
        return self.num_keys * self.gap

    def key_at(self, index: int) -> int:
        """The index-th loaded key."""
        return index * self.gap

    def columns(self) -> Tuple[List[int], List[int]]:
        """The key column and the payload column to bulk-load, each a list
        of its ``range`` built in C: what every ``build`` takes, with no
        tuple per key."""
        return list(range(0, self.key_space, self.gap)), list(range(self.num_keys))

    def pairs(self) -> List[Tuple[int, int]]:
        """The loaded (key, payload) pairs, sorted by key: a ``zip`` of the
        key and the ordinal ``range``, built in C."""
        return list(zip(range(0, self.key_space, self.gap), range(self.num_keys)))


def generate_dataset(num_keys: int, gap: int = 8) -> Dataset:
    """Monotonic integer keys spaced *gap* apart, payload = ordinal."""
    if num_keys < 1:
        raise ConfigurationError("num_keys must be >= 1")
    if gap < 1:
        raise ConfigurationError("gap must be >= 1")
    return Dataset(num_keys=num_keys, gap=gap)


def skew_fractions(
    num_servers: int, hot: float = 0.80, ratio: float = 0.45
) -> Tuple[float, ...]:
    """Per-server data fractions modeling attribute-value skew.

    For 4 servers this returns the paper's 80/12/5/3 split; for other
    cluster sizes the hot server keeps *hot* and the remainder decays
    geometrically with *ratio*.
    """
    if num_servers < 1:
        raise ConfigurationError("need at least one server")
    if num_servers == 1:
        return (1.0,)
    if num_servers == 4 and hot == 0.80:
        return PAPER_SKEW_4
    weights = [ratio ** i for i in range(num_servers - 1)]
    total = sum(weights)
    rest = [(1.0 - hot) * w / total for w in weights]
    return tuple([hot] + rest)


def skewed_partitioner(dataset: Dataset, num_servers: int) -> RangePartitioner:
    """A range partitioner realizing the paper's skewed placement."""
    return RangePartitioner.from_fractions(
        dataset.key_space, skew_fractions(num_servers)
    )
