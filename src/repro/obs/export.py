"""Chrome trace-event export of an observability snapshot.

:func:`chrome_trace` renders the retained span trees of
:meth:`Observability.snapshot` (load the result in ``chrome://tracing``
or Perfetto): operations and traversal steps are complete ("X") events,
verbs are nested beneath them, one track (tid) per operation, one
process (pid) per client; time series become counter ("C") tracks. The
snapshot dict itself is the JSON format.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

__all__ = ["chrome_trace", "retained_spans"]


def _span_events(span: Dict[str, Any], pid: int) -> List[Dict[str, Any]]:
    tid = span["op_id"]
    started = span["started_at"]
    finished = span["finished_at"]
    if finished is None:
        finished = started
    events = [
        {
            "name": f"{span['kind']}:{span['name']}",
            "cat": span["kind"],
            "ph": "X",
            "ts": started * 1e6,
            "dur": max(0.0, (finished - started)) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"op_id": span["op_id"]},
        }
    ]
    for verb in span["verbs"]:
        events.append(
            {
                "name": verb["verb"],
                "cat": "verb",
                "ph": "X",
                "ts": verb["started_at"] * 1e6,
                "dur": max(0.0, verb["finished_at"] - verb["started_at"]) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "server": verb["server_id"],
                    "payload_bytes": verb["payload_bytes"],
                    "local": verb["local"],
                    "batch_id": verb["batch_id"],
                },
            }
        )
    for child in span["children"]:
        events.extend(_span_events(child, pid))
    return events


def retained_spans(snapshot: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """A snapshot's sampled + slow span dicts, each operation once (a span
    can be both)."""
    spans = {}
    for group in ("sampled_spans", "slow_spans"):
        for span in snapshot.get(group, []):
            spans.setdefault(span["op_id"], span)
    return list(spans.values())


def chrome_trace(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Render the retained span trees as a Chrome trace-event document.

    Timestamps are simulated microseconds; each client is a "process",
    each operation a "thread", so concurrent clients stack as parallel
    tracks in the viewer. Sampled and slow spans are merged (a span can
    be both; it appears once).
    """
    events: List[Dict[str, Any]] = []
    for span in retained_spans(snapshot):
        pid = span["client_id"] if span["client_id"] is not None else 0
        events.extend(_span_events(span, pid))
    for series in snapshot.get("timeseries", []):
        pid = int(series["labels"].get("server", 0))
        for t, value in series["points"]:
            events.append(
                {
                    "name": series["name"],
                    "cat": "timeseries",
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    events.sort(key=lambda event: (event["ts"], event["tid"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.obs",
            "sim_time": snapshot["sim_time"],
            "ops_observed": snapshot.get("ops_observed", 0),
        },
    }
