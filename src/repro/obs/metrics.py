"""Always-on metrics primitives: counters, gauges, log-bucketed histograms.

Instruments are plain mutable objects handed out by a
:class:`MetricsRegistry`. Call sites resolve their instrument handles
once at wiring time and hold the reference, so an enabled hot path pays
a couple of attribute operations per event — and a disabled hot path
pays a single ``is None`` test, because no registry exists at all.

Every instrument is stamped with *simulated* time on mutation: it holds
the simulator (any object with a ``now`` attribute) and reads the clock
as an attribute, not through a call. Nothing here touches wall-clock
time and nothing schedules simulation events: metrics observe the
simulation, they never perturb it (namsan rule N06 enforces this for
the whole package).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.config import ObservabilityConfig

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Upper edge of a registry histogram's first bucket (100 ns) and the
#: ratio between consecutive edges; the count is ``bucket_count``.
BUCKET_FLOOR = 1e-7
BUCKET_BASE = 2.0


class Counter:
    """Monotonically increasing count (ops, bytes, retries, ...).

    :meth:`inc` is the checked front door. The hub's two per-event paths
    (verb completed, operation ended) bump ``value`` and ``updated_at`` in
    place with amounts that cannot be negative — same effect, no call.
    """

    __slots__ = ("name", "labels", "value", "updated_at", "_sim")

    def __init__(self, name: str, labels: LabelPairs, sim: Any) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updated_at = sim.now
        self._sim = sim

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        self.value += amount
        self.updated_at = self._sim.now

    def set_total(self, value: float) -> None:
        """Overwrite with a cumulative total read from an external counter
        (pull collectors mirroring NIC/injector/replication counters).
        Still monotone: lowering the total is rejected."""
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot decrease ({self.value} -> {value})"
            )
        self.value = value
        self.updated_at = self._sim.now

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "updated_at": self.updated_at,
        }


class Gauge:
    """Point-in-time level (queue depth, cache size, epoch, ...)."""

    __slots__ = ("name", "labels", "value", "updated_at", "_sim")

    def __init__(self, name: str, labels: LabelPairs, sim: Any) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updated_at = sim.now
        self._sim = sim

    def set(self, value: float) -> None:
        self.value = value
        self.updated_at = self._sim.now

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "updated_at": self.updated_at,
        }


class Histogram:
    """Log-bucketed histogram for long-tailed quantities (latencies).

    Bucket ``i`` is upper-inclusive: it covers ``(floor * base**(i-1),
    floor * base**i]``, bucket 0 takes everything up to ``floor``, and
    values past the last edge land in the overflow bucket ``"+Inf"`` —
    the snapshot's format, which the obs goldens pin. The bucket hit is
    ``bisect_left(bucket_edges(), value)``; the hub's two per-event paths
    repeat :meth:`observe`'s body in place. A registry histogram (floor
    100 ns, base 2, 40 buckets by default) spans 100 ns to ~30 h of
    simulated time at ~2x resolution — plenty for verb latencies through
    whole-experiment durations.
    """

    __slots__ = (
        "name",
        "labels",
        "count",
        "total",
        "min",
        "max",
        "buckets",
        "updated_at",
        "_sim",
        "edges",
    )

    def __init__(
        self,
        name: str,
        labels: LabelPairs,
        sim: Any,
        floor: float,
        base: float,
        bucket_count: int,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        # bucket_count regular buckets + 1 overflow bucket.
        self.buckets = [0] * (bucket_count + 1)
        self.updated_at = sim.now
        self._sim = sim
        #: Finite upper edges; an index past them is the overflow bucket.
        self.edges = [floor * base**i for i in range(bucket_count)]

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updated_at = self._sim.now

    def bucket_edges(self) -> List[float]:
        """Upper edge of each bucket; the last is +inf (overflow)."""
        return self.edges + [math.inf]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper edges (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        edges = self.bucket_edges()
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            # Empty buckets hold no quantile (at q=0 every one meets rank 0).
            if bucket and seen >= rank:
                edge = edges[index]
                return self.max if math.isinf(edge) else min(edge, self.max)
        return self.max

    def summary(self) -> Dict[str, float]:
        """The standard quantile summary (p50/p90/p99/p999 plus mean).

        Quantiles come from bucket upper edges, so monotonicity
        (p50 <= p90 <= p99 <= p999) holds by construction.
        """
        return {
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def as_dict(self) -> Dict[str, object]:
        summary = self.summary()
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": summary["mean"],
            "p50": summary["p50"],
            "p90": summary["p90"],
            "p99": summary["p99"],
            "p999": summary["p999"],
            "buckets": list(self.buckets),
            # The overflow bucket's edge is "+Inf" (a string: JSON has no
            # Infinity).
            "bucket_edges": [
                edge if math.isfinite(edge) else "+Inf"
                for edge in self.bucket_edges()
            ],
            "updated_at": self.updated_at,
        }


class MetricsRegistry:
    """Named, labelled instrument store stamped with simulator time.

    ``sim`` is the simulator, or anything else with a ``now`` attribute;
    it is the only notion of time the registry knows about. Instruments
    are interned by ``(name, labels)`` so repeated lookups return the same
    object — call sites cache the handle and mutate it directly.
    """

    def __init__(self, sim: Any, config: Optional[ObservabilityConfig] = None):
        self._sim = sim
        self._config = config if config is not None else ObservabilityConfig(enabled=True)
        self._instruments: Dict[Tuple[str, LabelPairs], Any] = {}

    @staticmethod
    def _label_pairs(labels: Dict[str, object]) -> LabelPairs:
        return tuple(sorted((key, str(value)) for key, value in labels.items()))

    def _intern(self, kind: type, name: str, labels: Dict[str, object], *shape) -> Any:
        key = (name, self._label_pairs(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = kind(name, key[1], self._sim, *shape)
        elif not isinstance(instrument, kind):
            raise ConfigurationError(f"metric {name!r} already registered with another type")
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._intern(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._intern(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._intern(
            Histogram, name, labels, BUCKET_FLOOR, BUCKET_BASE, self._config.bucket_count
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot of every instrument in deterministic
        (name, labels) order, stamped with sim time."""
        instruments = self._instruments
        return {
            "sim_time": self._sim.now,
            "metrics": [instruments[key].as_dict() for key in sorted(instruments)],
        }
