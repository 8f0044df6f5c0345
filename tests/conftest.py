"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Cluster, ClusterConfig

# Registers the --namsan option, the namsan_allow_races marker, the
# autouse fixture that traces every cluster for data races when the
# option is on (inert otherwise), and the always-available small-budget
# schedule-exploration fixture. Imported rather than installed so the
# plugin rides along with the source tree.
from repro.analysis.namsan.pytest_plugin import (  # noqa: F401
    namsan_explore,
    namsan_trace,
    pytest_addoption,
    pytest_configure,
)
from repro.workloads import generate_dataset


@pytest.fixture
def small_config() -> ClusterConfig:
    """Four memory servers on two machines — the paper's main setup."""
    return ClusterConfig(num_memory_servers=4, seed=11)


@pytest.fixture
def cluster(small_config) -> Cluster:
    return Cluster(small_config)


@pytest.fixture
def compute(cluster):
    return cluster.new_compute_server()


@pytest.fixture
def dataset():
    """2000 keys spaced 8 apart: small enough for fast tests, large enough
    for a three-level tree at the default page size."""
    return generate_dataset(2_000, gap=8)


@pytest.fixture
def pairs(dataset):
    return dataset.pairs()


@pytest.fixture(scope="session")
def paper_run():
    """The whole reproduction (``repro.experiments.paper``) at the tier-1
    scale, run once: test_paper_shapes judges its claims, test_gate its
    payload, test_experiments_smoke each figure's cells and heading."""
    from repro.experiments import paper
    from tests.test_paper_shapes import SCALE

    return paper.run(scale=SCALE)
