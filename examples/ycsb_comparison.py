"""Compare the three index designs on YCSB-style workloads.

A miniature of the paper's Experiment 1 (Section 6.1): runs workloads A
(points), B (ranges) and D (50% inserts) against all three designs at a
configurable client count, and prints throughput, mean latency, network
traffic, and memory-server CPU utilization side by side.

Run with: ``python examples/ycsb_comparison.py [--clients 80] [--skew]``
"""

import argparse

from repro.experiments.common import build_index, cluster_config
from repro.experiments.scale import ExperimentScale
from repro.nam.cluster import Cluster
from repro.workloads import (
    OpType,
    WorkloadRunner,
    generate_dataset,
    workload_a,
    workload_b,
    workload_d,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=80)
    parser.add_argument("--keys", type=int, default=20_000)
    parser.add_argument("--skew", action="store_true",
                        help="use the paper's 80/12/5/3 data placement")
    args = parser.parse_args()

    scale = ExperimentScale(num_keys=args.keys, measure_s=0.003)
    specs = [workload_a(), workload_b(0.01), workload_d()]
    placement = "skewed" if args.skew else "uniform"
    print(f"{args.clients} clients, {args.keys:,} keys, {placement} placement\n")

    for spec in specs:
        print(f"--- workload {spec.name} ---")
        header = (f"{'design':>16s} {'ops/s':>12s} {'mean lat':>10s} "
                  f"{'net GB/s':>9s} {'hot CPU':>8s}")
        print(header)
        for design in ("coarse-grained", "fine-grained", "hybrid"):
            dataset = generate_dataset(scale.num_keys, scale.gap)
            cluster = Cluster(cluster_config(scale))
            index = build_index(cluster, design, dataset, skewed=args.skew)
            runner = WorkloadRunner(cluster, dataset)
            result = runner.run(
                index, spec, num_clients=args.clients,
                warmup_s=0.001, measure_s=scale.measure_s,
            )
            op_type = (OpType.RANGE if spec.range_fraction else OpType.POINT)
            hot_cpu = max(result.cpu_utilization.values())
            print(
                f"{design:>16s} {result.throughput:>12,.0f} "
                f"{result.latency_mean(op_type) * 1e6:>8.1f}us "
                f"{result.network_gb_per_s:>9.2f} {hot_cpu:>7.0%}"
            )
        print()


if __name__ == "__main__":
    main()
