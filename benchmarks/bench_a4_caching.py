"""Benchmark target for Appendix A.4: client-side inner-node caching."""

from repro.experiments import a4_caching


def test_a4_inner_node_caching(benchmark, run_once, bench_scale):
    results = run_once(a4_caching.run, scale=bench_scale, num_clients=80)
    a4_caching.print_figure(results)

    read_only_plain, _ = results[("A", False)]
    read_only_cached, read_hit_rate = results[("A", True)]
    mixed_plain, _ = results[("D", False)]
    mixed_cached, mixed_hit_rate = results[("D", True)]

    read_gain = read_only_cached.throughput / read_only_plain.throughput
    mixed_gain = mixed_cached.throughput / mixed_plain.throughput
    benchmark.extra_info["gains"] = {"A": read_gain, "D": mixed_gain}
    benchmark.extra_info["hit_rates"] = {"A": read_hit_rate, "D": mixed_hit_rate}

    # Paper shape (A.4): read-only workloads benefit significantly from
    # caching; write-heavy workloads benefit less (revalidation/invalidation churn).
    assert read_gain > 1.5
    assert read_hit_rate > 0.4
    assert mixed_gain < read_gain
