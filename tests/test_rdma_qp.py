"""Tests for queue pairs: verbs, RPC, traffic accounting, local fast path."""

import pytest

from repro import Cluster
from repro.nam.rpc import RPC_HEADER_BYTES, TreeCall
from repro.rdma.verbs import Verb


@pytest.fixture
def wired(cluster):
    compute = cluster.new_compute_server()
    return cluster, compute


def test_read_returns_region_bytes(wired):
    cluster, compute = wired
    server = cluster.memory_server(0)
    server.region.write(4096, b"payload!")
    data = cluster.execute(compute.qp(0).read(4096, 8))
    assert data == b"payload!"


def test_read_latency_at_least_two_propagations(wired):
    cluster, compute = wired
    start = cluster.now
    cluster.execute(compute.qp(0).read(0, 1024))
    elapsed = cluster.now - start
    assert elapsed >= 2 * cluster.config.network.one_way_latency_s


def test_write_lands_in_remote_region(wired):
    cluster, compute = wired
    cluster.execute(compute.qp(1).write(8192, b"abcd"))
    assert cluster.memory_server(1).region.read(8192, 4) == b"abcd"


def test_atomics_over_the_wire(wired):
    cluster, compute = wired
    server = cluster.memory_server(2)
    server.region.write_u64(64, 7)
    swapped, old = cluster.execute(compute.qp(2).compare_and_swap(64, 7, 9))
    assert swapped and old == 7
    old = cluster.execute(compute.qp(2).fetch_and_add(64, 3))
    assert old == 9
    assert server.region.read_u64(64) == 12


def test_verb_stats_recorded(wired):
    cluster, compute = wired
    server = cluster.memory_server(0)
    cluster.execute(compute.qp(0).read(0, 512))
    cluster.execute(compute.qp(0).write(0, b"x" * 128))
    cluster.execute(compute.qp(0).fetch_and_add(0, 1))
    assert server.stats.ops[Verb.READ] == 1
    assert server.stats.bytes[Verb.READ] == 512
    assert server.stats.ops[Verb.WRITE] == 1
    assert server.stats.bytes[Verb.WRITE] == 128
    assert server.stats.ops[Verb.FETCH_ADD] == 1


def test_port_traffic_counts_wire_bytes(wired):
    cluster, compute = wired
    server = cluster.memory_server(0)
    tx0, rx0 = server.port.traffic()
    cluster.execute(compute.qp(0).read(0, 1000))
    tx1, rx1 = server.port.traffic()
    assert tx1 - tx0 >= 1000  # payload leaves through the server's TX
    assert rx1 - rx0 > 0  # the request came in through RX


def test_rpc_roundtrip(wired):
    cluster, compute = wired
    server = cluster.memory_server(0)

    def handler(srv, call):
        yield srv.cpu(1e-6)
        return call.args == (42,), RPC_HEADER_BYTES

    server.register_handler("lookup", handler)
    request = TreeCall("lookup", "idx", 0, (42,))
    response = cluster.execute(compute.qp(0).call(request, request.wire_bytes))
    assert response is True


def test_rpc_workers_limit_concurrency(wired):
    """With one slow handler per core, extra requests queue."""
    cluster, compute = wired
    server = cluster.memory_server(0)
    cores = cluster.config.cpu.cores_per_server
    service = 10e-6

    def handler(srv, call):
        yield srv.cpu(service)
        return None, RPC_HEADER_BYTES

    server.register_handler("lookup", handler)
    request = TreeCall("lookup", "idx", 0, (1,))

    def caller():
        yield from compute.qp(0).call(request, request.wire_bytes)

    procs = [cluster.spawn(caller()) for _ in range(2 * cores)]
    cluster.sim.run_until_complete(cluster.sim.all_of(procs))
    # Two batches of `cores` requests: at least 2x the service time.
    assert cluster.now >= 2 * service


def test_local_fast_path_skips_nic(small_config):
    from repro import Cluster

    config = small_config.with_(colocated=True)
    cluster = Cluster(config)
    compute = cluster.new_compute_server()
    local_ids = [
        server.server_id
        for server in cluster.memory_servers
        if server.machine is compute.machine
    ]
    assert local_ids, "co-located compute server shares a machine"
    server = cluster.memory_server(local_ids[0])
    tx0, rx0 = server.port.traffic()
    start = cluster.now
    cluster.execute(compute.qp(local_ids[0]).read(0, 1024))
    local_elapsed = cluster.now - start
    assert server.port.traffic() == (tx0, rx0)  # no NIC traffic
    assert local_elapsed < 2 * cluster.config.network.one_way_latency_s


def test_unknown_rpc_op_raises(wired):
    cluster, compute = wired
    server = cluster.memory_server(0)

    def handler(srv, call):
        return None, RPC_HEADER_BYTES
        yield  # pragma: no cover

    server.register_handler("insert", handler)  # wrong op on purpose
    request = TreeCall("lookup", "idx", 0, (1,))
    from repro.errors import NetworkError

    with pytest.raises(NetworkError, match="no handler"):
        cluster.execute(compute.qp(0).call(request, request.wire_bytes))
