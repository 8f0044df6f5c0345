"""YCSB-style workload generation, execution, and measurement."""

from repro.workloads.datagen import (
    Dataset,
    generate_dataset,
    skew_fractions,
    skewed_partitioner,
)
from repro.workloads.distributions import (
    KeyChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    make_chooser,
)
from repro.workloads.checker import check_history
from repro.workloads.history import History, Scenario, run_scenario
from repro.workloads.metrics import OP_TYPES, Op, OpType, RunResult, TenantOutcome
from repro.workloads.openloop import TenantSpec
from repro.workloads.runner import WorkloadRunner, draw_ops
from repro.workloads.ycsb import (
    WorkloadSpec,
    workload_a,
    workload_b,
    workload_c,
    workload_d,
    workload_e,
)

__all__ = [
    "Dataset",
    "generate_dataset",
    "skew_fractions",
    "skewed_partitioner",
    "KeyChooser",
    "ScrambledZipfianChooser",
    "UniformChooser",
    "ZipfianChooser",
    "make_chooser",
    "OP_TYPES",
    "Op",
    "OpType",
    "RunResult",
    "TenantOutcome",
    "WorkloadRunner",
    "draw_ops",
    "History",
    "Scenario",
    "run_scenario",
    "check_history",
    "TenantSpec",
    "WorkloadSpec",
    "workload_a",
    "workload_b",
    "workload_c",
    "workload_d",
    "workload_e",
]
