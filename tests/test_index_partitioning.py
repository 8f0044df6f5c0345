"""Tests for range/hash partitioning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.index.partitioning import HashPartitioner, RangePartitioner, mix64
from repro.workloads.datagen import skew_fractions


class TestRangePartitioner:
    def test_uniform_partitions(self):
        part = RangePartitioner.uniform(1000, 4)
        assert part.boundaries == [0, 250, 500, 750]
        assert part.server_for_key(0) == 0
        assert part.server_for_key(249) == 0
        assert part.server_for_key(250) == 1
        assert part.server_for_key(999) == 3
        # Keys beyond the nominal space stay on the last server.
        assert part.server_for_key(5000) == 3

    def test_from_fractions_matches_paper_skew(self):
        part = RangePartitioner.from_fractions(1000, (0.80, 0.12, 0.05, 0.03))
        assert part.boundaries == [0, 800, 920, 970]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner.from_fractions(1000, (0.5, 0.4))

    def test_empty_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner.from_fractions(10, (0.99, 0.005, 0.005))

    def test_range_routing_contiguous(self):
        part = RangePartitioner.uniform(1000, 4)
        assert part.servers_for_range(0, 100) == [0]
        assert part.servers_for_range(200, 600) == [0, 1, 2]
        assert part.servers_for_range(900, 950) == [3]
        assert part.servers_for_range(5, 5) == []

    def test_boundaries_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner([10, 20])

    def test_partition_bounds(self):
        part = RangePartitioner.uniform(1000, 4)
        assert part.partition_bounds(0, 1000) == (0, 250)
        assert part.partition_bounds(3, 1000) == (750, 1000)


class TestHashPartitioner:
    def test_point_routing_is_deterministic_and_spread(self):
        part = HashPartitioner(4)
        assignments = [part.server_for_key(k) for k in range(10_000)]
        assert assignments == [part.server_for_key(k) for k in range(10_000)]
        counts = [assignments.count(s) for s in range(4)]
        assert min(counts) > 2000  # roughly balanced

    def test_range_routing_fans_to_all_servers(self):
        part = HashPartitioner(4)
        assert part.servers_for_range(10, 20) == [0, 1, 2, 3]
        assert part.servers_for_range(10, 10) == []


class TestRoundRobinPartitioner:
    def test_stride_one_interleaves_keys(self):
        from repro.index.partitioning import RoundRobinPartitioner

        part = RoundRobinPartitioner(4)
        assert [part.server_for_key(k) for k in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_stride_groups_keys(self):
        from repro.index.partitioning import RoundRobinPartitioner

        part = RoundRobinPartitioner(2, stride=10)
        assert part.server_for_key(0) == 0
        assert part.server_for_key(9) == 0
        assert part.server_for_key(10) == 1
        assert part.server_for_key(20) == 0

    def test_short_range_touches_few_servers(self):
        from repro.index.partitioning import RoundRobinPartitioner

        part = RoundRobinPartitioner(4, stride=100)
        assert part.servers_for_range(0, 50) == [0]
        assert part.servers_for_range(50, 150) == [0, 1]
        assert part.servers_for_range(0, 1000) == [0, 1, 2, 3]
        assert part.servers_for_range(5, 5) == []

    def test_stride_one_ranges_fan_out(self):
        from repro.index.partitioning import RoundRobinPartitioner

        part = RoundRobinPartitioner(4)
        assert part.servers_for_range(10, 12) == [2, 3]
        assert part.servers_for_range(10, 20) == [0, 1, 2, 3]

    def test_validation(self):
        from repro.index.partitioning import RoundRobinPartitioner

        with pytest.raises(ConfigurationError):
            RoundRobinPartitioner(0)
        with pytest.raises(ConfigurationError):
            RoundRobinPartitioner(2, stride=0)
        with pytest.raises(ConfigurationError):
            RoundRobinPartitioner(2).server_for_key(-1)

    def test_works_end_to_end_with_cg_index(self):
        from repro import Cluster, ClusterConfig, CoarseGrainedIndex
        from repro.index.partitioning import RoundRobinPartitioner
        from repro.workloads import generate_dataset

        cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=3))
        dataset = generate_dataset(400, gap=4)
        index = CoarseGrainedIndex.build(
            cluster,
            "rr",
            *dataset.columns(),
            partitioner=RoundRobinPartitioner(4, stride=64),
        )
        session = index.session(cluster.new_compute_server())
        assert cluster.execute(session.lookup(dataset.key_at(123))) == [123]
        got = cluster.execute(session.range_scan(0, dataset.key_space))
        assert got == dataset.pairs()


def test_mix64_is_bijective_on_samples():
    values = {mix64(k) for k in range(100_000)}
    assert len(values) == 100_000


class TestSkewFractions:
    def test_four_servers_match_paper(self):
        assert skew_fractions(4) == (0.80, 0.12, 0.05, 0.03)

    def test_generic_sums_to_one(self):
        for servers in (1, 2, 3, 5, 8):
            assert sum(skew_fractions(servers)) == pytest.approx(1.0)

    def test_hot_server_dominates(self):
        fractions = skew_fractions(8)
        assert fractions[0] == 0.80
        assert all(earlier >= later for earlier, later
                   in zip(fractions[1:], fractions[2:]))


@given(
    key=st.integers(min_value=0, max_value=10_000),
    servers=st.integers(min_value=1, max_value=16),
)
def test_point_server_always_in_its_range_cover(key, servers):
    """server_for_key(k) is among servers_for_range for any range around k."""
    part = RangePartitioner.uniform(10_001, servers)
    owner = part.server_for_key(key)
    assert owner in part.servers_for_range(key, key + 1)
    assert owner in part.servers_for_range(max(0, key - 5), key + 5)


@given(
    low=st.integers(min_value=0, max_value=999),
    span=st.integers(min_value=1, max_value=999),
)
def test_range_cover_is_contiguous_and_minimal(low, span):
    part = RangePartitioner.from_fractions(1000, (0.80, 0.12, 0.05, 0.03))
    cover = part.servers_for_range(low, low + span)
    assert cover == list(range(cover[0], cover[-1] + 1))
    # Every covered server really intersects the range.
    for server in cover:
        p_low, p_high = part.partition_bounds(server, 1 << 60)
        assert p_low < low + span and p_high > low
