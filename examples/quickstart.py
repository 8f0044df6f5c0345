"""Quickstart: build a NAM cluster, load an index, query it.

Creates the paper's default topology (4 memory servers on 2 machines),
bulk-loads one million-scale-down key/value pairs into each of the three
distributed index designs, and runs the basic operations — point lookup,
range scan, insert, delete — showing per-operation simulated latency.

Run with: ``python examples/quickstart.py``
"""

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
)
from repro.workloads import generate_dataset


def timed(cluster, operation):
    """Run one index operation; return (result, simulated latency in us)."""
    start = cluster.now
    result = cluster.execute(operation)
    return result, (cluster.now - start) * 1e6


def main() -> None:
    # Keys 0, 8, 16, ... with the ordinal as payload.
    dataset = generate_dataset(50_000)

    for design_cls in (CoarseGrainedIndex, FineGrainedIndex, HybridIndex):
        # A fresh simulated cluster per design: 4 memory servers, 2 machines.
        cluster = Cluster(ClusterConfig(num_memory_servers=4))
        compute = cluster.new_compute_server()

        if design_cls is FineGrainedIndex:
            index = design_cls.build(cluster, "orders", *dataset.columns())
        else:
            index = design_cls.build(
                cluster, "orders", *dataset.columns(), key_space=dataset.key_space
            )
        session = index.session(compute)

        print(f"\n=== {index.design} ===")
        values, lat = timed(cluster, session.lookup(4000))
        print(f"lookup(4000)            -> {values}   [{lat:7.2f} us]")

        scan, lat = timed(cluster, session.range_scan(4000, 4200))
        print(f"range_scan(4000, 4200)  -> {len(scan)} pairs  [{lat:7.2f} us]")

        _, lat = timed(cluster, session.insert(4001, 999_999))
        print(f"insert(4001, 999999)    -> ok   [{lat:7.2f} us]")
        values, _ = timed(cluster, session.lookup(4001))
        print(f"lookup(4001)            -> {values}")

        found, lat = timed(cluster, session.delete(4001))
        print(f"delete(4001)            -> {found}   [{lat:7.2f} us]")

        # Catalog metadata registered at build time:
        descriptor = cluster.catalog.lookup("orders")
        print(f"catalog: design={descriptor.design}, "
              f"roots on servers {sorted(descriptor.roots)}")


if __name__ == "__main__":
    main()
