"""Domain scenario: a distributed secondary index on an orders table.

The paper's indexes are secondary (non-clustered, non-unique): leaves map
a secondary key to a primary key. This example models an e-commerce
orders table indexed by *customer id* — one customer has many orders —
on a hybrid-design index:

* "orders of customer C" is a point lookup returning several payloads;
* "orders of customer segment [lo, hi)" is a range scan;
* new orders arrive concurrently from many clients (inserts);
* cancellations tombstone entries, and the global epoch garbage collector
  (running on a compute server, Section 5.2) compacts them in the
  background.

Run with: ``python examples/secondary_index_orders.py``
"""

import numpy as np

from repro import Cluster, ClusterConfig, HybridIndex
from repro.btree import key_columns

NUM_CUSTOMERS = 5_000
ORDERS_PER_CUSTOMER = 4


def main() -> None:
    rng = np.random.default_rng(7)

    # Secondary-index pairs: (customer_id, order_id); non-unique keys.
    pairs = sorted(
        (customer, customer * 100 + n)
        for customer in range(NUM_CUSTOMERS)
        for n in range(ORDERS_PER_CUSTOMER)
    )

    cluster = Cluster(ClusterConfig(num_memory_servers=4))
    index = HybridIndex.build(
        cluster, "orders_by_customer", *key_columns(pairs), key_space=NUM_CUSTOMERS
    )
    compute = cluster.new_compute_server()
    front_desk = index.session(compute)

    # --- point query: all orders of one customer -------------------------
    orders = cluster.execute(front_desk.lookup(1234))
    print(f"customer 1234 has {len(orders)} orders: {sorted(orders)}")

    # --- concurrent order intake ------------------------------------------
    def intake_worker(worker_id: int):
        session = index.session(compute)
        for n in range(200):
            customer = int(rng.integers(0, NUM_CUSTOMERS))
            order_id = 10_000_000 + worker_id * 1000 + n
            yield from session.insert(customer, order_id)

    workers = [cluster.spawn(intake_worker(w)) for w in range(10)]
    cluster.sim.run_until_complete(cluster.sim.all_of(workers))
    print(f"ingested 2000 new orders at t={cluster.now * 1e3:.2f} ms")

    # --- segment analytics: orders in a customer-id range -----------------
    segment = cluster.execute(front_desk.range_scan(1000, 1100))
    print(f"customers [1000, 1100) hold {len(segment)} orders")

    # --- cancellations + global epoch GC (Section 5.2) --------------------
    cancelled = 0
    for customer in range(2000, 2050):
        while cluster.execute(front_desk.delete(customer)):
            cancelled += 1
    print(f"cancelled {cancelled} orders (tombstoned)")

    collectors = index.start_gc(compute, epoch_s=0.001)
    cluster.run(until=cluster.now + 0.003)  # let a few epochs pass
    for collector in collectors:
        collector.stopped = True
    removed = sum(collector.entries_removed for collector in collectors)
    print(f"epoch GC removed {removed} tombstones in the background")

    remaining = cluster.execute(front_desk.range_scan(2000, 2050))
    print(f"customers [2000, 2050) after cancellations: {len(remaining)} orders")


if __name__ == "__main__":
    main()
