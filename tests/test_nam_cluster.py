"""Tests for cluster topology, allocator, and catalog."""

import pytest

from repro import Cluster, ClusterConfig
from repro.errors import AllocationError, CatalogError, ConfigurationError
from repro.nam.catalog import Catalog, IndexDescriptor, RootLocation


class TestTopology:
    def test_memory_servers_per_machine(self, cluster):
        assert cluster.num_memory_servers == 4
        machines = {server.machine.machine_id for server in cluster.memory_servers}
        assert len(machines) == 2  # 2 servers per machine

    def test_qpi_penalty_on_second_socket(self, cluster):
        penalties = [server.qpi_factor for server in cluster.memory_servers]
        # Slot 0 owns the NIC, slot 1 crosses QPI.
        assert penalties[0] == 1.0
        assert penalties[1] > 1.0
        assert penalties[2] == 1.0
        assert penalties[3] > 1.0

    def test_each_memory_server_has_its_own_port(self, cluster):
        ports = {id(server.port) for server in cluster.memory_servers}
        assert len(ports) == 4

    def test_compute_servers_on_dedicated_machines(self, cluster):
        compute = cluster.new_compute_server()
        assert compute.machine.kind == "compute"
        assert compute.num_memory_servers == 4

    def test_colocated_compute_on_memory_machines(self, small_config):
        cluster = Cluster(small_config.with_(colocated=True))
        first = cluster.new_compute_server()
        second = cluster.new_compute_server()
        assert first.machine.kind == "memory"
        assert first.machine is not second.machine

    def test_too_many_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_memory_servers=200)

    def test_num_machines_rounds_up(self):
        assert ClusterConfig(num_memory_servers=5).num_machines == 3


class TestAllocator:
    def test_pages_are_aligned_and_distinct(self, cluster):
        allocator = cluster.memory_server(0).allocator
        page_size = cluster.config.tree.page_size
        offsets = [allocator.allocate() for _ in range(10)]
        assert len(set(offsets)) == 10
        assert all(offset % page_size == 0 for offset in offsets)
        assert all(offset >= page_size for offset in offsets)  # page 0 reserved

    def test_exhaustion_raises(self):
        config = ClusterConfig(
            region_initial_bytes=4096, region_max_bytes=8192
        )
        cluster = Cluster(config)
        allocator = cluster.memory_server(0).allocator
        with pytest.raises(AllocationError):
            for _ in range(100):
                allocator.allocate()

    def test_a_run_is_the_pages_single_allocations_hand_out(self):
        page_size = ClusterConfig().tree.page_size
        singles = Cluster(ClusterConfig()).memory_server(0).allocator
        runs = Cluster(ClusterConfig()).memory_server(0).allocator
        expected = [singles.allocate() for _ in range(7)]
        first = runs.allocate_run(5)
        assert [first + i * page_size for i in range(5)] == expected[:5]
        assert runs.allocate_run(2) == expected[5]
        assert runs.pages_allocated == singles.pages_allocated == 7

    def test_run_exhaustion_raises(self):
        cluster = Cluster(ClusterConfig(region_initial_bytes=4096, region_max_bytes=8192))
        with pytest.raises(AllocationError):
            cluster.memory_server(0).allocator.allocate_run(8)

    def test_remote_faa_allocation_matches_local(self, cluster, compute):
        """One-sided bump allocation hands out the same page stream."""
        from repro.nam.allocator import ALLOC_WORD_OFFSET

        page_size = cluster.config.tree.page_size
        remote_offset = cluster.execute(
            compute.qp(1).fetch_and_add(ALLOC_WORD_OFFSET, page_size)
        )
        local_offset = cluster.memory_server(1).allocator.allocate()
        assert local_offset == remote_offset + page_size


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        descriptor = IndexDescriptor(
            name="idx", design="fine-grained",
            roots={0: RootLocation(0, 1024)},
        )
        catalog.register(descriptor)
        assert catalog.lookup("idx") is descriptor
        assert "idx" in catalog
        assert catalog.names() == ("idx",)

    def test_duplicate_registration_rejected(self):
        catalog = Catalog()
        catalog.register(IndexDescriptor(name="idx", design="hybrid"))
        with pytest.raises(CatalogError):
            catalog.register(IndexDescriptor(name="idx", design="hybrid"))

    def test_unknown_lookup_raises(self):
        with pytest.raises(CatalogError):
            Catalog().lookup("missing")

    def test_drop(self):
        catalog = Catalog()
        catalog.register(IndexDescriptor(name="idx", design="hybrid"))
        catalog.drop("idx")
        assert "idx" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop("idx")


class TestMeasurement:
    def test_network_snapshot_and_delta(self, cluster, compute):
        baseline = cluster.reset_measurement()
        cluster.execute(compute.qp(0).read(0, 1024))
        delta = cluster.measurement_delta(baseline)
        tx, rx = delta["network"][0]
        assert tx >= 1024
        assert delta["network"][1] == (0, 0)  # untouched server

    def test_cpu_utilization_reported(self, cluster, compute):
        from repro.nam.rpc import RPC_HEADER_BYTES, TreeCall

        server = cluster.memory_server(0)

        def handler(srv, call):
            yield srv.cpu(50e-6)
            return None, RPC_HEADER_BYTES

        server.register_handler("lookup", handler)
        baseline = cluster.reset_measurement()
        request = TreeCall("lookup", "i", 0, (1,))
        cluster.execute(compute.qp(0).call(request, request.wire_bytes))
        delta = cluster.measurement_delta(baseline)
        assert delta["cpu"][0] > 0
        assert delta["cpu"][1] == 0
