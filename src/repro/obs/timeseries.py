"""Bounded ring-buffer time series sampled on a sim-time cadence.

Counters answer "how much, in total"; the flash-crowd and failover
experiments need "how much, *when*" — which server went hot, how deep the
RPC queue grew during the burst, when the NIC backlog drained. A
:class:`TimeSeries` is a bounded ring of ``(sim_time, value)`` points and
a :class:`TimeSeriesRegistry` interns them by ``(name, labels)`` exactly
like :class:`~repro.obs.metrics.MetricsRegistry` interns instruments.

Sampling is **lazy**: the hub never schedules simulator events for it
(namsan rule N06). Instead, hot-path hooks that already fire on every
verb/RPC/op call ``Observability.maybe_sample``, which compares ``sim.now``
against the next cadence boundary — one float compare when no sample is
due — and records one point per registered series when one is. Sample
timestamps are therefore "the first event at or after each cadence
boundary", which is deterministic for a deterministic run and costs zero
events. Disabled cadence (``timeseries_cadence_s=None``, the default)
short-circuits to a single ``is None`` test.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Tuple

__all__ = ["TimeSeries", "TimeSeriesRegistry"]

LabelPairs = Tuple[Tuple[str, str], ...]


class TimeSeries:
    """One named, labelled series: a bounded ring of ``(t, value)``."""

    __slots__ = ("name", "labels", "points")

    def __init__(self, name: str, labels: LabelPairs, maxlen: int) -> None:
        self.name = name
        self.labels = labels
        self.points: deque = deque(maxlen=maxlen)

    def record(self, t: float, value: float) -> None:
        self.points.append((t, value))

    @property
    def last(self) -> Tuple[float, float]:
        """The most recent ``(t, value)`` point, or ``(0.0, 0.0)``."""
        return self.points[-1] if self.points else (0.0, 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "points": [[t, value] for t, value in self.points],
        }


class TimeSeriesRegistry:
    """Interned store of :class:`TimeSeries`, deterministic iteration order."""

    def __init__(self, sim: Any, maxlen: int) -> None:
        self._sim = sim
        self._maxlen = maxlen
        self._series: Dict[Tuple[str, LabelPairs], TimeSeries] = {}

    @staticmethod
    def _label_pairs(labels: Dict[str, object]) -> LabelPairs:
        return tuple(sorted((key, str(value)) for key, value in labels.items()))

    def series(self, name: str, **labels: object) -> TimeSeries:
        key = (name, self._label_pairs(labels))
        entry = self._series.get(key)
        if entry is None:
            entry = TimeSeries(name, key[1], self._maxlen)
            self._series[key] = entry
        return entry

    def record(self, name: str, value: float, **labels: object) -> None:
        self.series(name, **labels).record(self._sim.now, value)

    def all_series(self) -> List[TimeSeries]:
        """Every series in deterministic (name, labels) order."""
        return [self._series[key] for key in sorted(self._series)]

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready rendering of every series."""
        return [series.as_dict() for series in self.all_series()]
