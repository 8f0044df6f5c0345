"""The paper's modified YCSB workloads (Section 6, Table 3).

=========  ============  ====================  ========
workload   point queries  range queries (sel)  inserts
=========  ============  ====================  ========
A          100%
B                        100% (configurable)
C          95%                                 5%
D          50%                                 50%
=========  ============  ====================  ========

Range selectivity is a fraction of the key space (the paper uses 0.001,
0.01 and 0.1). Request keys are drawn uniformly by default; Zipfian access
skew is available for extensions (the paper's headline skew experiments
instead skew the *data placement*, see :mod:`repro.workloads.datagen`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "WorkloadSpec",
    "workload_a",
    "workload_b",
    "workload_c",
    "workload_d",
    "workload_e",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix of one workload."""

    name: str
    point_fraction: float = 0.0
    range_fraction: float = 0.0
    insert_fraction: float = 0.0
    delete_fraction: float = 0.0
    #: Fraction of the key space covered by each range query.
    selectivity: float = 0.001
    #: Request-key distribution: uniform | zipfian | scrambled_zipfian.
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    #: Where inserted keys land: "uniform" spreads new keys over the whole
    #: key space (each hits a random leaf); "append" issues monotonically
    #: increasing keys like original YCSB inserts, concentrating all
    #: writers on the rightmost leaf — the worst-case lock contention the
    #: paper's Section 6.3 discussion is about.
    insert_pattern: str = "uniform"

    def __post_init__(self) -> None:
        fractions = (self.point_fraction, self.range_fraction,
                     self.insert_fraction, self.delete_fraction)
        if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
            raise ConfigurationError(
                f"operation fractions must each be in [0, 1], got {fractions}"
            )
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"operation fractions must sum to 1.0, got {total}"
            )
        if self.range_fraction and not 0 < self.selectivity <= 1:
            raise ConfigurationError("selectivity must be in (0, 1]")
        if self.insert_pattern not in ("uniform", "append"):
            raise ConfigurationError(
                f"insert_pattern must be 'uniform' or 'append', "
                f"got {self.insert_pattern!r}"
            )


def workload_e(
    delete_fraction: float = 0.25, distribution: str = "uniform"
) -> WorkloadSpec:
    """Extension workload: point queries mixed with deletes (exercises the
    tombstone path and the epoch garbage collector; not in the paper's
    Table 3, which has no delete-bearing mix)."""
    return WorkloadSpec(
        name=f"E(del={delete_fraction})",
        point_fraction=1.0 - delete_fraction,
        delete_fraction=delete_fraction,
        distribution=distribution,
    )


def workload_a(distribution: str = "uniform") -> WorkloadSpec:
    """100% point queries."""
    return WorkloadSpec(name="A", point_fraction=1.0, distribution=distribution)


def workload_b(selectivity: float, distribution: str = "uniform") -> WorkloadSpec:
    """100% range queries with the given selectivity."""
    return WorkloadSpec(
        name=f"B(sel={selectivity})",
        range_fraction=1.0,
        selectivity=selectivity,
        distribution=distribution,
    )


def workload_c(distribution: str = "uniform") -> WorkloadSpec:
    """95% point queries, 5% inserts."""
    return WorkloadSpec(
        name="C",
        point_fraction=0.95,
        insert_fraction=0.05,
        distribution=distribution,
    )


def workload_d(distribution: str = "uniform") -> WorkloadSpec:
    """50% point queries, 50% inserts."""
    return WorkloadSpec(
        name="D",
        point_fraction=0.5,
        insert_fraction=0.5,
        distribution=distribution,
    )
