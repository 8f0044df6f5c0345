"""Tests for configuration validation."""

import warnings

import pytest

from repro.config import (
    ClusterConfig,
    CpuConfig,
    NetworkConfig,
    RetryConfig,
    TreeConfig,
)
from repro.errors import ConfigurationError, ConfigurationWarning


def test_defaults_are_valid():
    config = ClusterConfig()
    assert config.num_memory_servers == 4
    assert config.num_machines == 2
    assert config.tree.page_size == 1024


def test_with_replaces_fields():
    config = ClusterConfig()
    changed = config.with_(num_memory_servers=8, colocated=True)
    assert changed.num_memory_servers == 8
    assert changed.colocated is True
    assert config.num_memory_servers == 4  # original untouched


def test_network_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(one_way_latency_s=-1)
    with pytest.raises(ConfigurationError):
        NetworkConfig(port_bandwidth_bytes_per_s=0)


def test_cpu_validation():
    with pytest.raises(ConfigurationError):
        CpuConfig(cores_per_server=0)
    with pytest.raises(ConfigurationError):
        CpuConfig(qpi_penalty=0.5)


def test_tree_validation():
    with pytest.raises(ConfigurationError):
        TreeConfig(page_size=64)
    with pytest.raises(ConfigurationError):
        TreeConfig(bulk_fill=0.01)
    with pytest.raises(ConfigurationError):
        TreeConfig(head_node_interval=-1)
    # A window below one used to be accepted and silently prefetch one leaf.
    for window in (0, -3):
        with pytest.raises(ConfigurationError, match="prefetch_window"):
            TreeConfig(prefetch_window=window)
    assert TreeConfig(prefetch_window=1).prefetch_window == 1


def test_cluster_validation():
    with pytest.raises(ConfigurationError):
        ClusterConfig(num_memory_servers=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(memory_servers_per_machine=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(num_memory_servers=129)  # 7-bit server ids
    # Inverted region sizes used to surface only as Cluster's RemoteAccessError.
    with pytest.raises(ConfigurationError, match="region_initial_bytes"):
        ClusterConfig(region_initial_bytes=1 << 16, region_max_bytes=1 << 15)
    equal = ClusterConfig(region_initial_bytes=1 << 15, region_max_bytes=1 << 15)
    assert equal.region_initial_bytes == equal.region_max_bytes


def test_network_batching_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(max_batch_wqes=0)
    assert NetworkConfig(max_batch_wqes=1).max_batch_wqes == 1
    assert NetworkConfig().doorbell_batching is True


def test_rpc_dedup_cache_validation():
    with pytest.raises(ConfigurationError):
        RetryConfig(rpc_dedup_cache_entries=0)


def test_rpc_dedup_cache_eviction_warning():
    # Small relative to the retry budget: a dedup entry can be evicted
    # while its call's retransmits are still in flight.
    with pytest.warns(ConfigurationWarning, match="rpc_dedup_cache_entries"):
        RetryConfig(max_attempts=4, rpc_dedup_cache_entries=8)
    # At or above 4x max_attempts no warning fires.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConfigurationWarning)
        RetryConfig(max_attempts=4, rpc_dedup_cache_entries=16)
        RetryConfig()


def test_num_machines():
    assert ClusterConfig(num_memory_servers=4,
                         memory_servers_per_machine=2).num_machines == 2
    assert ClusterConfig(num_memory_servers=4,
                         memory_servers_per_machine=1).num_machines == 4
    assert ClusterConfig(num_memory_servers=3,
                         memory_servers_per_machine=2).num_machines == 2
