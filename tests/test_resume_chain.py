"""How deep a point lookup's resume chain is, frame by frame, per design.

Every wake-up of a simulation process re-enters each generator frame of its
``yield from`` chain, down to the one that slept; cProfile counts every
re-entry as a call, and a fine-grained lookup wakes about ten times
(docs/performance.md, "What a forwarding frame costs"). A method that only
forwards to a descent therefore hands the descent what it wants read off
the node it stops at (``reply``) and returns the descent's generator: no
frame of its own on the chain. This pins that, as the chain itself — the
process's generator, then ``gi_yieldfrom`` down to the sleeper — at the
first READ of a quiet point lookup (its root page on a warm session, or the
hybrid's leaf after the traversal RPC; on the memory server, the partition
tree's root page). The chains are code objects, so the pin depends on
neither host speed nor Python version; a ``yield from`` wrapper put back
into ``BLinkTree.lookup``, the coarse-grained lookup handler or the
hybrid's traversal handler adds one and fails it.
"""

from __future__ import annotations

import pytest

from repro import Cluster, ClusterConfig
from repro.btree.algorithm import BLinkTree
from repro.experiments.common import build_index
from repro.index.accessors import LocalAccessor, RemoteAccessor
from repro.index.hybrid import _HybridLeafTree
from repro.nam.memory_server import MemoryServer
from repro.rdma.qp import QueuePair
from repro.workloads import generate_dataset
from repro.workloads.runner import _Run

CLIENT_LOOP = _Run.client_loop
WORKER_LOOP = MemoryServer._worker_loop
DESCEND = BLinkTree._descend_from
REMOTE_READ = RemoteAccessor.read_node
LOCAL_READ = LocalAccessor.read_node
POST = QueuePair._post

#: (design, the read the chain is taken at, the chain from the process down).
CHAINS = {
    "fine-grained/client": (
        "fine-grained", REMOTE_READ, [CLIENT_LOOP, DESCEND, REMOTE_READ, POST]
    ),
    "hybrid/client": (
        "hybrid",
        REMOTE_READ,
        [CLIENT_LOOP, _HybridLeafTree._find_leaf, REMOTE_READ, POST],
    ),
    "hybrid/worker": ("hybrid", LOCAL_READ, [WORKER_LOOP, DESCEND, LOCAL_READ]),
    "coarse-grained/worker": (
        "coarse-grained", LOCAL_READ, [WORKER_LOOP, DESCEND, LOCAL_READ]
    ),
}


def chain_of(generator):
    """The code objects from *generator* down its ``yield from`` chain."""
    codes = []
    while generator is not None:
        codes.append(generator.gi_code)
        generator = generator.gi_yieldfrom
    return codes


def chain_at_first_read(design: str, read):
    """Step one quiet point lookup, issued by the workload runner's client
    loop on a warm session, an instant at a time; return the chain of the
    first sleeping process whose chain passes through *read*."""
    cluster = Cluster(ClusterConfig(seed=7))
    dataset = generate_dataset(20_000, gap=8)
    index = build_index(cluster, design, dataset)
    run = _Run(cluster, index)
    (session,) = run.sessions(1)
    key = dataset.key_at(12_345)
    assert cluster.execute(session.lookup(key)) == [12_345]  # caches the root word
    proc = cluster.spawn(run.client_loop(0, session, [("lookup", (key,))]))
    sim = cluster.sim
    while not proc.triggered:
        for _at, _seq, sleeper, wakes in sim._heap:
            if wakes is True:
                codes = chain_of(sleeper._generator)
                if read.__code__ in codes:
                    return codes
        sim.run(until=sim._heap[0][0])
    raise AssertionError(f"the {design} lookup never slept in {read.__qualname__}")


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_a_point_lookup_resumes_through_no_forwarding_frame(case):
    design, read, expected = CHAINS[case]
    chain = chain_at_first_read(design, read)
    assert chain == [function.__code__ for function in expected], [
        code.co_name for code in chain
    ]
