"""Tests for dataset generation, distributions, specs, and the runner."""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import Cluster, ClusterConfig, FineGrainedIndex, check_tree
from repro.errors import ConfigurationError
from repro.workloads import (
    OpType,
    UniformChooser,
    WorkloadRunner,
    ZipfianChooser,
    generate_dataset,
    make_chooser,
    workload_a,
    workload_b,
    workload_c,
    workload_d,
)
from repro.workloads.distributions import ScrambledZipfianChooser


class TestDataset:
    def test_geometry(self):
        ds = generate_dataset(100, gap=8)
        assert ds.key_space == 800
        assert ds.key_at(5) == 40
        pairs = ds.pairs()
        assert pairs[0] == (0, 0)
        assert pairs[-1] == (792, 99)
        assert len(pairs) == 100

    @pytest.mark.parametrize("num_keys", [1, 20_000])
    def test_columns_are_the_transpose_of_pairs(self, num_keys):
        ds = generate_dataset(num_keys)
        keys, values = ds.columns()
        assert list(zip(keys, values)) == ds.pairs()
        assert (type(keys), type(values)) == (list, list)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(0)
        with pytest.raises(ConfigurationError):
            generate_dataset(10, gap=0)


class TestDistributions:
    def test_uniform_covers_space(self):
        chooser = UniformChooser(100, np.random.default_rng(0))
        seen = {chooser.next_index() for _ in range(5000)}
        assert len(seen) > 95
        assert min(seen) >= 0 and max(seen) < 100

    def test_zipfian_is_skewed(self):
        chooser = ZipfianChooser(10_000, np.random.default_rng(0))
        draws = [chooser.next_index() for _ in range(20_000)]
        top_hundred = sum(1 for d in draws if d < 100)
        assert top_hundred > len(draws) * 0.3  # hot head
        assert all(0 <= d < 10_000 for d in draws)

    def test_scrambled_zipfian_spreads_hot_keys(self):
        chooser = ScrambledZipfianChooser(10_000, np.random.default_rng(0))
        draws = [chooser.next_index() for _ in range(5000)]
        assert all(0 <= d < 10_000 for d in draws)
        # Hot items are no longer the small indices.
        assert sum(1 for d in draws if d < 100) < len(draws) * 0.2

    def test_make_chooser_factory(self):
        rng = np.random.default_rng(0)
        assert isinstance(make_chooser("uniform", 10, rng), UniformChooser)
        assert isinstance(make_chooser("zipfian", 10, rng), ZipfianChooser)
        with pytest.raises(ConfigurationError):
            make_chooser("bogus", 10, rng)

    def test_zipf_determinism(self):
        a = ZipfianChooser(1000, np.random.default_rng(7))
        b = ZipfianChooser(1000, np.random.default_rng(7))
        assert [a.next_index() for _ in range(100)] == [
            b.next_index() for _ in range(100)
        ]


class TestSpecs:
    def test_standard_workloads_match_table3(self):
        assert workload_a().point_fraction == 1.0
        b = workload_b(0.01)
        assert b.range_fraction == 1.0 and b.selectivity == 0.01
        c = workload_c()
        assert (c.point_fraction, c.insert_fraction) == (0.95, 0.05)
        d = workload_d()
        assert (d.point_fraction, d.insert_fraction) == (0.5, 0.5)

    def test_fractions_must_sum_to_one(self):
        from repro.workloads import WorkloadSpec

        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", point_fraction=0.5)

    @pytest.mark.parametrize("fractions", [(1.5, -0.5), (-0.25, 1.25)])
    def test_each_fraction_must_lie_in_the_unit_interval(self, fractions):
        from repro.workloads import WorkloadSpec

        point, insert = fractions
        with pytest.raises(ConfigurationError, match=r"each be in \[0, 1\]"):
            WorkloadSpec(name="bad", point_fraction=point, insert_fraction=insert)

    def test_insert_pattern_validated(self):
        from repro.workloads import WorkloadSpec

        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", insert_fraction=1.0, insert_pattern="x")


class TestRunner:
    @pytest.fixture
    def rig(self):
        ds = generate_dataset(2000)
        cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=2))
        index = FineGrainedIndex.build(cluster, "idx", *ds.columns())
        return cluster, ds, index

    def test_point_workload_counts_and_latencies(self, rig):
        cluster, ds, index = rig
        runner = WorkloadRunner(cluster, ds)
        result = runner.run(index, workload_a(), num_clients=10,
                            warmup_s=0.0005, measure_s=0.002)
        assert result.op_counts.get(OpType.POINT, 0) > 0
        assert result.op_counts.get(OpType.INSERT, 0) == 0
        assert result.throughput > 0
        assert result.latency_mean(OpType.POINT) > 0
        assert result.latency_percentile(OpType.POINT, 99) >= (
            result.latency_percentile(OpType.POINT, 50)
        )

    def test_mixed_workload_respects_fractions(self, rig):
        cluster, ds, index = rig
        runner = WorkloadRunner(cluster, ds)
        result = runner.run(index, workload_d(), num_clients=20,
                            warmup_s=0.0005, measure_s=0.004)
        points = result.op_counts.get(OpType.POINT, 0)
        inserts = result.op_counts.get(OpType.INSERT, 0)
        assert points + inserts > 100
        assert 0.3 < points / (points + inserts) < 0.7

    def test_network_counters_populate(self, rig):
        cluster, ds, index = rig
        runner = WorkloadRunner(cluster, ds)
        result = runner.run(index, workload_b(0.01), num_clients=10,
                            warmup_s=0.0005, measure_s=0.002)
        assert result.network_gb_per_s > 0
        assert set(result.network) == {0, 1, 2, 3}

    def test_populations_mix_clients(self, rig):
        cluster, ds, index = rig
        runner = WorkloadRunner(cluster, ds)
        result = runner.run(
            index,
            populations=[(workload_a(), 5), (workload_b(0.001), 5)],
            warmup_s=0.0005,
            measure_s=0.002,
        )
        assert result.num_clients == 10
        assert result.op_counts.get(OpType.POINT, 0) > 0
        assert result.op_counts.get(OpType.RANGE, 0) > 0

    def test_append_pattern_issues_monotonic_keys(self, rig):
        cluster, ds, index = rig
        from repro.workloads import WorkloadSpec

        spec = WorkloadSpec(name="ap", insert_fraction=1.0,
                            insert_pattern="append")
        runner = WorkloadRunner(cluster, ds)
        runner.run(index, spec, num_clients=4, warmup_s=0.0005,
                   measure_s=0.001)
        session = index.session(cluster.new_compute_server())
        appended = cluster.execute(
            session.range_scan(ds.key_space, ds.key_space + 10_000)
        )
        keys = [k for k, _v in appended]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))  # unique, gap-free sequence
        assert keys[0] == ds.key_space

    def test_delete_workload_runs_with_background_gc(self, rig):
        from repro.workloads import workload_e

        cluster, ds, index = rig
        compute = cluster.new_compute_server()
        gc = index.start_gc(compute, epoch_s=0.0005)
        runner = WorkloadRunner(cluster, ds)
        result = runner.run(index, workload_e(0.3), num_clients=10,
                            warmup_s=0.0005, measure_s=0.003)
        gc.stopped = True
        assert result.op_counts.get(OpType.DELETE, 0) > 0
        assert result.op_counts.get(OpType.POINT, 0) > 0
        # GC swept at least once during the run and the tree stayed sound.
        assert gc.sweeps >= 1
        report = cluster.execute(check_tree(index.tree_for(compute)))
        assert report.ok, report.violations

    def test_workload_e_fractions(self):
        from repro.workloads import workload_e

        spec = workload_e(0.4)
        assert spec.point_fraction == pytest.approx(0.6)
        assert spec.delete_fraction == 0.4

    def test_runner_requires_spec_or_populations(self, rig):
        cluster, ds, index = rig
        runner = WorkloadRunner(cluster, ds)
        with pytest.raises(ConfigurationError):
            runner.run(index)

    @pytest.mark.parametrize("ops_per_client", [0, -1])
    def test_fixed_work_needs_an_operation_per_client(self, rig, ops_per_client):
        cluster, ds, index = rig
        with pytest.raises(ConfigurationError, match="ops_per_client"):
            WorkloadRunner(cluster, ds).run(
                index, workload_a(), num_clients=2, ops_per_client=ops_per_client
            )

    @pytest.mark.parametrize(
        "warmup_s, measure_s, name",
        [(0.0005, 0.0, "measure_s"), (0.0005, -0.002, "measure_s"),
         (-0.0005, 0.002, "warmup_s")],
    )
    def test_timed_run_needs_a_measurable_window(self, rig, warmup_s, measure_s, name):
        cluster, ds, index = rig
        with pytest.raises(ConfigurationError, match=name):
            WorkloadRunner(cluster, ds).run(
                index, workload_a(), num_clients=2,
                warmup_s=warmup_s, measure_s=measure_s,
            )
        assert not cluster.compute_servers  # refused before any client spawned

    def test_deterministic_given_seed(self):
        def once():
            ds = generate_dataset(1000)
            cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=5))
            index = FineGrainedIndex.build(cluster, "idx", *ds.columns())
            runner = WorkloadRunner(cluster, ds)
            result = runner.run(index, workload_c(), num_clients=8,
                                warmup_s=0.0005, measure_s=0.002, seed=99)
            return result.total_ops, result.op_counts

        assert once() == once()
