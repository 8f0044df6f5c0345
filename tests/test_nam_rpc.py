"""What the two-sided designs put on the wire, one row per tree operation.

Each row holds the request's bytes and the response's bytes when the key
operated on holds no payload and when it holds three. Bytes are read where
the message meets the network — the size ``QueuePair.call`` is handed and
the size the worker's reply books in ``QueuePair._spawn_reply`` — so the
table says nothing about what shape a message has, only what it costs.
"""

import pytest

from repro import Cluster, ClusterConfig, CoarseGrainedIndex, HybridIndex
from repro.rdma.qp import QueuePair
from repro.workloads import generate_dataset

#: operation -> (request bytes, response bytes at 0 results, at 3 results):
#: a 24-byte header plus 8 bytes per key, value or pointer.
ROWS = {
    "lookup": (32, 24, 48),
    "range_scan": (40, 24, 72),
    "insert": (40, 24, 24),
    "update": (40, 24, 24),
    "delete": (32, 24, 24),
    "traverse": (32, 32, 32),
    "install_separator": (48, 24, 24),
}

#: Keys are multiples of 4: EMPTY holds nothing, THREE three payloads.
THREE = 40
EMPTY = THREE + 1


def _rpcs(cluster, operation):
    """Start and run *operation* (a thunk returning the generator); the
    ``(request, request bytes, response bytes)`` of every RPC it made, in
    order."""
    sent = []
    real_call, real_reply = QueuePair.call, QueuePair._spawn_reply

    def call(qp, request, request_wire_bytes, tenant=None):
        sent.append([request, request_wire_bytes, None])
        return real_call(qp, request, request_wire_bytes, tenant)

    def spawn_reply(qp, reply, response, wire_bytes, span=None):
        sent[-1][2] = wire_bytes  # one call in flight at a time
        real_reply(qp, reply, response, wire_bytes, span)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueuePair, "call", call)
        patch.setattr(QueuePair, "_spawn_reply", spawn_reply)
        cluster.execute(operation())
    return [tuple(rpc) for rpc in sent]


def _session(design):
    cluster = Cluster(ClusterConfig(num_memory_servers=2, seed=5))
    dataset = generate_dataset(400, gap=4)
    index = design.build(cluster, "idx", *dataset.columns(), key_space=dataset.key_space)
    session = index.session(cluster.new_compute_server())
    for value in (1001, 1002):
        cluster.execute(session.insert(THREE, value))
    return cluster, session


@pytest.fixture(scope="module")
def observed():
    """operation -> the RPCs it made against EMPTY, then against THREE."""
    table = {}
    cluster, session = _session(CoarseGrainedIndex)
    for name, args in (
        ("lookup", lambda key: (key,)),
        ("range_scan", lambda key: (key, key + 1)),
        ("update", lambda key: (key, 7)),
        ("delete", lambda key: (key,)),
        ("insert", lambda key: (key, 9)),
    ):
        method = getattr(session, name)
        table[name] = [
            _rpcs(cluster, lambda: method(*args(key))) for key in (EMPTY, THREE)
        ]
    cluster, session = _session(HybridIndex)
    table["traverse"] = [
        _rpcs(cluster, lambda: session.lookup(key)) for key in (EMPTY, THREE)
    ]
    # Insert until a leaf splits: its separator goes up after the traversal.
    for step in range(1, 400):
        rpcs = _rpcs(cluster, lambda: session.insert(THREE + 2, step))
        if len(rpcs) == 2:
            table["install_separator"] = [rpcs[1:], rpcs[1:]]
            break
    return table


def test_request_wire_sizes(observed):
    assert set(observed) == set(ROWS)
    for name, (request_bytes, _none, _three) in ROWS.items():
        for rpcs in observed[name]:
            assert [rpc[1] for rpc in rpcs] == [request_bytes], name


def test_response_wire_sizes_scale_with_payload(observed):
    for name, (_request, none, three) in ROWS.items():
        assert [rpcs[0][2] for rpcs in observed[name]] == [none, three], name


def test_messages_are_hashable_values(observed):
    for rows in observed.values():
        for rpcs in rows:
            hash(rpcs[0][0])
    cluster, session = _session(CoarseGrainedIndex)
    (first, *_), (again, *_) = (
        _rpcs(cluster, lambda: session.lookup(EMPTY))[0] for _ in range(2)
    )
    assert first == again and hash(first) == hash(again)
