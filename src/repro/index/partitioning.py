"""Key-space partitioning for the coarse-grained and hybrid designs.

Section 2.2: the coarse-grained scheme first applies a partitioning
function — range- or hash-based — to decide which memory server stores a
key, then builds one tree per server. The partitioner also answers the
routing questions the client side needs:

* point queries/updates go to exactly one server;
* range queries go to the servers whose partitions intersect the range —
  a contiguous few under range partitioning, but *all* servers under hash
  partitioning (the scalability cost visible in Table 2 and Figure 3).

Attribute-value skew (Section 6.1) is modeled with
:meth:`RangePartitioner.from_fractions`: e.g. fractions ``(0.80, 0.12,
0.05, 0.03)`` assign 80% of the key space to server 0.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["Partitioner", "RangePartitioner", "HashPartitioner",
           "RoundRobinPartitioner", "mix64"]


def mix64(key: int) -> int:
    """SplitMix64 finalizer: a deterministic, well-spread 64-bit hash."""
    key = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    key = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    key = ((key ^ (key >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return key ^ (key >> 31)


class Partitioner(abc.ABC):
    """Maps keys and key ranges to memory-server ids."""

    num_servers: int

    @abc.abstractmethod
    def server_for_key(self, key: int) -> int:
        """The server storing *key*."""

    @abc.abstractmethod
    def servers_for_range(self, low: int, high: int) -> List[int]:
        """All servers that may store keys in ``[low, high)``."""

    def split(
        self, keys: List[int], values: List[int]
    ) -> List[Tuple[List[int], List[int]]]:
        """Split the key and value columns of sorted pairs into each
        server's share, in server order, each share still sorted.

        One :meth:`server_for_key` pass over the keys; each server's share
        is then gathered by ``compress`` in C.
        """
        owners = list(map(self.server_for_key, keys))
        shares: List[Tuple[List[int], List[int]]] = []
        for server in range(self.num_servers):
            mine = [owner == server for owner in owners]
            shares.append((list(compress(keys, mine)), list(compress(values, mine))))
        return shares


class RangePartitioner(Partitioner):
    """Contiguous key ranges per server.

    ``boundaries[i]`` is the inclusive lower bound of server i's range;
    ``boundaries[0]`` must be 0 and the list strictly increasing.
    """

    def __init__(self, boundaries: Sequence[int]) -> None:
        bounds = list(boundaries)
        if not bounds or bounds[0] != 0:
            raise ConfigurationError("range boundaries must start at 0")
        if any(b >= c for b, c in zip(bounds, bounds[1:])) and len(bounds) > 1:
            if bounds != sorted(set(bounds)):
                raise ConfigurationError("range boundaries must strictly increase")
        self.boundaries = bounds
        self.num_servers = len(bounds)

    @classmethod
    def uniform(cls, key_space: int, num_servers: int) -> "RangePartitioner":
        """Equal-width ranges over ``[0, key_space)``."""
        if num_servers < 1 or key_space < num_servers:
            raise ConfigurationError("key space too small for the server count")
        width = key_space // num_servers
        return cls([i * width for i in range(num_servers)])

    @classmethod
    def from_fractions(
        cls, key_space: int, fractions: Sequence[float]
    ) -> "RangePartitioner":
        """Ranges sized by *fractions* of the key space (skew modeling).

        The paper's skewed setup assigns 80/12/5/3 percent of the data to
        the four servers (Section 6.1).
        """
        if abs(sum(fractions) - 1.0) > 1e-6:
            raise ConfigurationError("fractions must sum to 1.0")
        boundaries: List[int] = []
        cumulative = 0.0
        for fraction in fractions:
            boundaries.append(int(cumulative * key_space))
            cumulative += fraction
        if len(set(boundaries)) != len(boundaries):
            raise ConfigurationError("fractions produce empty partitions")
        return cls(boundaries)

    def server_for_key(self, key: int) -> int:
        if key < 0:
            raise ConfigurationError(f"negative key {key}")
        return min(bisect_right(self.boundaries, key) - 1, self.num_servers - 1)

    def servers_for_range(self, low: int, high: int) -> List[int]:
        if high <= low:
            return []
        first = self.server_for_key(low)
        last = self.server_for_key(high - 1)
        return list(range(first, last + 1))

    def split(
        self, keys: List[int], values: List[int]
    ) -> List[Tuple[List[int], List[int]]]:
        """Each server's share is one slice of the columns: a bisect of the
        sorted, non-negative *keys* per boundary, no per-key work."""
        cuts = [0] + [bisect_left(keys, bound) for bound in self.boundaries[1:]]
        cuts.append(len(keys))
        return [(keys[a:b], values[a:b]) for a, b in zip(cuts, cuts[1:])]

    def partition_bounds(self, server_id: int, key_space: int) -> tuple:
        """``[low, high)`` key bounds of *server_id*'s partition."""
        low = self.boundaries[server_id]
        high = (
            self.boundaries[server_id + 1]
            if server_id + 1 < self.num_servers
            else key_space
        )
        return low, high


class HashPartitioner(Partitioner):
    """Hash partitioning: server = mix64(key) mod S.

    Point operations route to one server; range queries must fan out to
    every server, since any server may hold qualifying keys (Section 2.3,
    step 2: ``H * P * S`` traversal cost for hash-partitioned ranges).
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ConfigurationError("need at least one server")
        self.num_servers = num_servers

    def server_for_key(self, key: int) -> int:
        return mix64(key) % self.num_servers

    def servers_for_range(self, low: int, high: int) -> List[int]:
        if high <= low:
            return []
        return list(range(self.num_servers))


class RoundRobinPartitioner(Partitioner):
    """Round-robin partitioning: server = (key / stride) mod S.

    The third CG option Section 2.2 lists. With *stride* = 1 adjacent keys
    land on different servers (perfect balance, but every range query fans
    out to all servers, like hash); larger strides trade balance for range
    locality — a range shorter than the stride touches few servers.
    """

    def __init__(self, num_servers: int, stride: int = 1) -> None:
        if num_servers < 1:
            raise ConfigurationError("need at least one server")
        if stride < 1:
            raise ConfigurationError("stride must be >= 1")
        self.num_servers = num_servers
        self.stride = stride

    def server_for_key(self, key: int) -> int:
        if key < 0:
            raise ConfigurationError(f"negative key {key}")
        return (key // self.stride) % self.num_servers

    def servers_for_range(self, low: int, high: int) -> List[int]:
        if high <= low:
            return []
        first_block = low // self.stride
        last_block = (high - 1) // self.stride
        if last_block - first_block + 1 >= self.num_servers:
            return list(range(self.num_servers))
        return sorted(
            {(block % self.num_servers)
             for block in range(first_block, last_block + 1)}
        )
