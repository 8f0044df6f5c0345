"""namscope: always-on observability for the NAM fabric.

The subsystem has six parts, all gated by
:class:`~repro.obs.config.ObservabilityConfig` (disabled by default —
hot paths then pay one ``is None`` test per event and runs are
byte-identical to an uninstrumented build):

* :mod:`repro.obs.metrics` — counters, gauges, and log-bucketed
  histograms in a :class:`MetricsRegistry` stamped with simulated time;
* :mod:`repro.obs.spans` — :class:`OpSpan`, one operation's record and
  flat event log, whose ``as_dict()`` renders the operation's anatomy
  (operation → traversal steps → verbs) as a JSON span tree; the log's
  verb tuples are what :class:`~repro.rdma.tracing.VerbTracer` reads too
  (a ``TraceRecord`` is one of them plus its operation's ``op_id``);
* :mod:`repro.obs.hub` — :class:`Observability`, the cluster-wide hub
  that owns the registry, samples span trees (every Nth op), captures
  slow ops past a latency threshold, and pulls NIC/injector/replication
  counters at snapshot time;
* :mod:`repro.obs.attribution` — critical-path decomposition of a
  sampled op's wall time into a closed segment taxonomy (``nic_queue``,
  ``network_flight``, ``server_rpc_queue``, ``server_cpu``, ...) that
  reconciles exactly with the span's duration;
* :mod:`repro.obs.flight` — the always-on failure flight recorder:
  bounded recent-activity rings dumped to self-contained JSON bundles
  on errored ops, verifier failures, and tenant SLO violations;
* :mod:`repro.obs.export` — the Chrome trace-event rendering of a
  snapshot's span trees and time series.

The hub also samples per-server time series (NIC backlog, worker
occupancy, RPC queue length, key-range heat) lazily on a sim-time
cadence. ``python -m repro.obs`` profiles one workload cell and reports
attributed latency breakdowns::

      PYTHONPATH=src python -m repro.obs run --out-dir out/
      PYTHONPATH=src python -m repro.obs report out/snapshot.json

See docs/observability.md for the full model and overhead guidance.
"""

from repro.obs.attribution import (
    SEGMENTS,
    aggregate_attributions,
    attribute_span_dict,
)
from repro.obs.config import ObservabilityConfig
from repro.obs.export import chrome_trace, retained_spans
from repro.obs.hub import Observability

__all__ = [
    "ObservabilityConfig",
    "Observability",
    "SEGMENTS",
    "attribute_span_dict",
    "aggregate_attributions",
    "chrome_trace",
    "retained_spans",
]
