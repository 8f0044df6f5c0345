"""namscope: always-on observability for the NAM fabric.

The subsystem has four parts, all gated by
:class:`~repro.obs.config.ObservabilityConfig` (disabled by default —
hot paths then pay one ``is None`` test per event and runs are
byte-identical to an uninstrumented build):

* :mod:`repro.obs.metrics` — counters, gauges, and log-bucketed
  histograms in a :class:`MetricsRegistry` stamped with simulated time;
* :mod:`repro.obs.spans` — :class:`OpSpan` trees recording the anatomy
  of individual operations (operation → traversal steps → verbs),
  whose verb tuples :class:`~repro.rdma.tracing.VerbTracer` reads too
  (a ``TraceRecord`` is one of them plus its operation's ``op_id``);
* :mod:`repro.obs.hub` — :class:`Observability`, the cluster-wide hub
  that owns the registry, samples span trees (every Nth op), captures
  slow ops past a latency threshold, and pulls NIC/injector/replication
  counters at snapshot time;
* :mod:`repro.obs.attribution` — critical-path decomposition of a
  sampled op's wall time into a closed segment taxonomy (``nic_queue``,
  ``network_flight``, ``server_rpc_queue``, ``server_cpu``, ...) that
  reconciles exactly with the span's duration;
* :mod:`repro.obs.timeseries` — bounded ring-buffer time series sampled
  lazily on a sim-time cadence (per-server NIC backlog, worker
  occupancy, RPC queue length, key-range heat);
* :mod:`repro.obs.flight` — the always-on failure flight recorder:
  bounded recent-activity rings dumped to self-contained JSON bundles
  on errored ops, verifier failures, and tenant SLO violations;
* :mod:`repro.obs.export` — Prometheus text, JSON, and Chrome
  trace-event exporters with validators, also exposed as a CLI::

      PYTHONPATH=src python -m repro.obs run --out-dir out/
      PYTHONPATH=src python -m repro.obs validate out/
      PYTHONPATH=src python -m repro.obs report out/snapshot.json

See docs/observability.md for the full model and overhead guidance.
"""

from repro.obs.attribution import (
    SEGMENTS,
    aggregate_attributions,
    attribute_span,
    attribute_span_dict,
)
from repro.obs.config import ObservabilityConfig
from repro.obs.flight import FlightRecorder
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    retained_spans,
    to_json,
    validate_chrome_trace,
    validate_json_snapshot,
    validate_prometheus_text,
)
from repro.obs.hub import Observability
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import OpSpan, VerbEvent
from repro.obs.timeseries import TimeSeries, TimeSeriesRegistry

__all__ = [
    "ObservabilityConfig",
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "OpSpan",
    "VerbEvent",
    "SEGMENTS",
    "attribute_span",
    "attribute_span_dict",
    "aggregate_attributions",
    "TimeSeries",
    "TimeSeriesRegistry",
    "FlightRecorder",
    "prometheus_text",
    "to_json",
    "chrome_trace",
    "retained_spans",
    "validate_prometheus_text",
    "validate_json_snapshot",
    "validate_chrome_trace",
]
