"""Tests for configuration validation."""

import dataclasses
import math
import warnings

import pytest

from repro.config import (
    AdmissionConfig,
    ClusterConfig,
    CpuConfig,
    NetworkConfig,
    ObservabilityConfig,
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


def _float_fields(cls):
    return [field.name for field in dataclasses.fields(cls) if field.type == "float"]


#: Every float field of the timing configs, each NaN, infinite and
#: negative. Such values used to build; a run then reported finite
#: throughput (a NaN latency) or died mid-run yielding a bad delay.
BAD_TIMING = [
    (cls, name, bad)
    for cls in (NetworkConfig, CpuConfig, RetryConfig)
    for name in _float_fields(cls)
    for bad in (math.nan, math.inf, -1e-6)
]


@pytest.mark.parametrize(
    "cls, name, bad", BAD_TIMING,
    ids=[f"{cls.__name__}.{name}={bad}" for cls, name, bad in BAD_TIMING],
)
def test_non_finite_or_negative_timing_is_refused(cls, name, bad):
    with pytest.raises(ConfigurationError, match=name):
        cls(**{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_rates_and_durations_are_refused(bad):
    with pytest.raises(ConfigurationError, match="tenant_rate_ops"):
        AdmissionConfig(tenant_rate_ops={"t": bad})
    for name in ("slow_op_threshold_s", "timeseries_cadence_s"):
        with pytest.raises(ConfigurationError, match=name):
            ObservabilityConfig(**{name: bad})
