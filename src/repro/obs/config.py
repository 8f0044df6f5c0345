"""Observability configuration.

:class:`ObservabilityConfig` gates the entire ``repro.obs`` subsystem.
With ``enabled=False`` (the default) no hub is created, every
instrumentation point in the hot paths degenerates to a single
``is None`` attribute test, and a run is byte-identical to an
uninstrumented build (a :class:`~repro.rdma.tracing.VerbTracer` brings a
private hub for its own lifetime: it reads this stream, it has no other).

With ``enabled=True`` the cluster carries an
:class:`~repro.obs.hub.Observability` hub: an always-on metrics registry,
sampled per-operation span trees, and a slow-op capture hook. Metric and
span bookkeeping never schedules simulation events, so even an enabled
run produces *identical simulated results* — observation changes wall
time, never virtual time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for the fabric-wide observability layer.

    ``sample_every`` keeps one full span tree per N operations, counted
    over a cluster-global operation sequence (the first operation is
    always eligible, so short runs still yield at least one sample).
    ``slow_op_threshold_s`` additionally
    captures the complete span tree of any operation whose end-to-end
    latency exceeds the threshold, regardless of sampling — the
    tail-latency forensics hook. Both retention lists are bounded (see
    ``MAX_SAMPLED_SPANS`` / ``MAX_SLOW_SPANS`` in :mod:`repro.obs.hub`).
    """

    enabled: bool = False
    #: Keep the span tree of every Nth operation, cluster-wide (1 = all).
    sample_every: int = 64
    #: Auto-capture the span tree of any op slower than this; None disables.
    slow_op_threshold_s: Optional[float] = 1e-3
    #: Histogram shape: per-metric log buckets spanning
    #: [BUCKET_FLOOR, BUCKET_FLOOR * BUCKET_BASE**bucket_count) — the two
    #: constants live in :mod:`repro.obs.metrics`.
    bucket_count: int = 40
    #: Sim-time cadence of per-server time-series sampling (seconds).
    #: None (the default) disables the sampler entirely; sampling is lazy
    #: (piggybacked on hot-path hooks), never event-scheduled.
    timeseries_cadence_s: Optional[float] = None
    #: Ring-buffer capacity of each time series (oldest point evicted).
    timeseries_points: int = 512
    #: Flight recorder: entries kept per recent-activity ring (per-client
    #: ops, per-server admission verdicts, faults, verbs).
    flight_ring: int = 64
    #: Derive per-tenant slow-op thresholds from ``TenantSpec.slo_p99_s``
    #: in open-loop runs (slow = over that tenant's SLO). Off by default:
    #: the static ``slow_op_threshold_s`` alone decides, byte-identically
    #: to builds that predate this knob.
    derive_slow_from_slo: bool = False

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigurationError("sample_every must be >= 1")
        for name in ("slow_op_threshold_s", "timeseries_cadence_s"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, or None")
        if not 1 <= self.bucket_count <= 128:
            raise ConfigurationError("bucket_count must be in [1, 128]")
        if self.timeseries_points < 1:
            raise ConfigurationError("timeseries_points must be >= 1")
        if self.flight_ring < 1:
            raise ConfigurationError("flight_ring must be >= 1")
