"""The wire anatomy of index operations, design by design.

The clearest way to understand the paper's design space is to watch the
verbs: this example traces a point lookup, a range scan, and an insert on
each of the three designs and prints every RDMA operation with its
timing — the coarse-grained design's single RPC, the fine-grained
design's chain of page READs and lock atomics, and the hybrid's RPC + leaf
READ mix.

Run with: ``python examples/operation_anatomy.py``
"""

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FineGrainedIndex,
    HybridIndex,
)
from repro.rdma.tracing import VerbTracer
from repro.workloads import generate_dataset

NUM_KEYS = 20_000


def trace(title, cluster, operation):
    with VerbTracer(cluster) as tracer:
        start = cluster.now
        cluster.execute(operation)
        total_us = (cluster.now - start) * 1e6
    print(f"\n--- {title}  ({total_us:.2f} us end to end) ---")
    print(tracer.format())


def main() -> None:
    dataset = generate_dataset(NUM_KEYS)  # keys 0, 8, 16, ...; payload = ordinal

    for design_cls in (CoarseGrainedIndex, FineGrainedIndex, HybridIndex):
        cluster = Cluster(ClusterConfig(num_memory_servers=4))
        if design_cls is FineGrainedIndex:
            index = design_cls.build(cluster, "anatomy", *dataset.columns())
        else:
            index = design_cls.build(
                cluster, "anatomy", *dataset.columns(), key_space=dataset.key_space
            )
        session = index.session(cluster.new_compute_server())
        # Warm the session (root-pointer fetch happens once, like a real
        # client consulting the catalog at query-compile time).
        cluster.execute(session.lookup(0))

        print(f"\n================ {index.design} ================")
        trace("point lookup", cluster, session.lookup(8_000))
        trace("range scan of 200 keys", cluster,
              session.range_scan(8_000, 8_000 + 200 * 8))
        trace("insert", cluster, session.insert(8_001, 42))


if __name__ == "__main__":
    main()
