"""Failure flight recorder: bounded rings of recent activity + dump bundles.

When a chaos or overload run goes wrong, the interesting evidence is what
happened *just before* — the ops, verbs, faults and admission verdicts
leading up to the errored op or SLO violation. The counters have already
aggregated that away and span sampling may have skipped the crucial op.
The :class:`FlightRecorder` is the always-on black box: bounded rings
(per-client recent operations — their event logs, not trees —,
per-server admission decisions, cluster-wide fault events, a compact
recent-verb ring of the hub's own verb tuples) that cost a few deque
appends per event and never grow.

On a trigger — an errored op, a verifier failure, a tenant SLO violation
— :meth:`dump` freezes the rings into a **self-contained JSON bundle**:
the triggering op's span tree, rendered from its log there and then,
with its critical-path attribution (:mod:`repro.obs.attribution`), plus
every ring's contents. Bundles are
kept in memory on the hub (bounded by ``MAX_FLIGHT_DUMPS``; overflow is
counted, not stored) and exported inside the observability snapshot under
``"flight"`` — harnesses write them to disk, the recorder itself never
touches files or wall clocks. ``python -m repro.obs report`` renders a
bundle as an attributed breakdown table.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Dict, List, Optional

from repro.obs.attribution import attribute_span_dict

__all__ = ["FlightRecorder"]

#: Dump bundles retained per run; further triggers are counted in
#: ``dumps_suppressed`` instead of stored.
MAX_FLIGHT_DUMPS = 8


class FlightRecorder:
    """Bounded recent-activity rings and trigger-driven dump bundles."""

    def __init__(self, sim: Any, ring: int) -> None:
        self._sim = sim
        self._ring = ring
        #: client_id -> ring of recently finished operation records.
        #: It and ``verbs`` are appended in place by the hub's per-event paths.
        self.client_ops: Dict[Any, deque] = defaultdict(lambda: deque(maxlen=ring))
        #: server_id -> ring of (t, verdict) admission decisions, where
        #: verdict is "accepted" or the rejection reason.
        self._admission: Dict[int, deque] = defaultdict(lambda: deque(maxlen=ring))
        #: Cluster-wide ring of (t, kind, server_id) fault events.
        self._faults: deque = deque(maxlen=ring)
        #: Cluster-wide ring of recently completed verbs (VERB log tuples).
        self.verbs: deque = deque(maxlen=ring)
        #: Frozen dump bundles, oldest first (bounded; overflow counted).
        self.dumps: List[Dict[str, Any]] = []
        self.dumps_suppressed = 0

    # -- ring feeds (called from hub hooks; bounded, allocation-light) --------

    def record_admission(self, server_id: int, verdict: str) -> None:
        self._admission[server_id].append((self._sim.now, verdict))

    def record_fault(self, kind: str, server_id: int) -> None:
        self._faults.append((self._sim.now, kind, server_id))

    # -- dumping ---------------------------------------------------------------

    def dump(
        self,
        trigger: str,
        span: Optional[Any] = None,
        detail: Optional[Any] = None,
    ) -> Optional[Dict[str, Any]]:
        """Freeze the rings into a self-contained bundle (or count it away
        when the dump budget is spent). Returns the bundle, or None."""
        if len(self.dumps) >= MAX_FLIGHT_DUMPS:
            self.dumps_suppressed += 1
            return None
        bundle: Dict[str, Any] = {
            "kind": "flight-dump",
            "trigger": trigger,
            "sim_time": self._sim.now,
        }
        if detail is not None:
            bundle["detail"] = detail
        if span is not None:
            bundle["op"] = span.as_dict()
            bundle["attribution"] = attribute_span_dict(bundle["op"])
        bundle["recent_ops"] = {
            str(client_id): [
                {
                    "op_id": op.op_id,
                    "name": op.name,
                    "started_at": op.started_at,
                    "finished_at": op.finished_at,
                }
                for op in ring
            ]
            for client_id, ring in sorted(
                self.client_ops.items(), key=lambda item: str(item[0])
            )
        }
        bundle["admission"] = {
            str(server_id): [[t, verdict] for t, verdict in ring]
            for server_id, ring in sorted(self._admission.items())
        }
        bundle["faults"] = [
            {"sim_time": t, "kind": kind, "server_id": server_id}
            for t, kind, server_id in self._faults
        ]
        bundle["verbs"] = [
            {
                "verb": verb,
                "server_id": server_id,
                "payload_bytes": payload_bytes,
                "started_at": started_at,
                "finished_at": finished_at,
            }
            for _, _, verb, server_id, payload_bytes, started_at, finished_at, *_
            in self.verbs
        ]
        self.dumps.append(bundle)
        return bundle

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready flight-recorder state for the snapshot exporter."""
        return {
            "dumps": list(self.dumps),
            "dumps_suppressed": self.dumps_suppressed,
            "ring_size": self._ring,
        }
