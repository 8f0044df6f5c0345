"""Exporters and validators for observability snapshots.

Three formats, all derived from :meth:`Observability.snapshot`:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` headers, ``_bucket``/``_sum``/``_count`` histogram series
  with cumulative ``le`` labels), suitable for scraping tools and diffing;
* the snapshot dict itself is the JSON format — :func:`to_json` just
  serializes it deterministically;
* :func:`chrome_trace` — Chrome trace-event JSON of the retained span
  trees (load in ``chrome://tracing`` or Perfetto): operations and
  traversal steps are complete ("X") events, verbs are nested beneath
  them, one track (tid) per operation, one process (pid) per client.

The matching ``validate_*`` functions re-parse an exported artifact and
raise :class:`~repro.errors.ValidationError` on malformation — the
``obs-smoke`` CI job round-trips all three through them.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping

from repro.errors import ValidationError

__all__ = [
    "prometheus_text",
    "to_json",
    "chrome_trace",
    "retained_spans",
    "validate_prometheus_text",
    "validate_json_snapshot",
    "validate_chrome_trace",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9eE.+-]+|NaN|[+-]Inf)$"
)


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double-quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: Mapping[str, str], extra: Mapping[str, str] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """Render a snapshot's metrics in Prometheus text exposition format."""
    lines: List[str] = [
        f"# NAM observability snapshot at sim_time={snapshot['sim_time']}",
    ]
    typed: set = set()
    for metric in snapshot["metrics"]:
        name = metric["name"]
        kind = metric["type"]
        labels = metric["labels"]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{_label_str(labels)} {metric['value']:g}")
        elif kind == "histogram":
            cumulative = 0
            for count, edge in zip(metric["buckets"], metric["bucket_edges"]):
                cumulative += count
                le = edge if isinstance(edge, str) else f"{edge:g}"
                lines.append(
                    f"{name}_bucket{_label_str(labels, {'le': le})} {cumulative}"
                )
            lines.append(f"{name}_sum{_label_str(labels)} {metric['total']:g}")
            lines.append(f"{name}_count{_label_str(labels)} {metric['count']}")
        else:
            raise ValidationError(f"unknown metric type {kind!r} for {name!r}")
    # Time series export as gauges carrying their latest sampled point; the
    # full point history lives in the JSON snapshot / Chrome trace.
    for series in snapshot.get("timeseries", []):
        name = series["name"]
        if not series["points"]:
            continue
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} gauge")
        value = series["points"][-1][1]
        lines.append(f"{name}{_label_str(series['labels'])} {value:g}")
    return "\n".join(lines) + "\n"


def to_json(snapshot: Mapping[str, Any], indent: int = None) -> str:
    """Serialize a snapshot deterministically (sorted keys)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


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


# -- validators (used by the CLI and the obs-smoke CI job) ---------------------


def validate_prometheus_text(text: str) -> int:
    """Parse Prometheus exposition text; returns the sample count.

    Checks metric-name syntax, numeric sample values, that every sample's
    name was declared by a ``# TYPE`` line, and that histogram bucket
    series are cumulative and ``+Inf``-terminated.
    """
    declared: Dict[str, str] = {}
    samples = 0
    buckets: Dict[str, List[float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValidationError(f"line {lineno}: malformed TYPE line: {line!r}")
            if not _METRIC_NAME.match(parts[2]):
                raise ValidationError(f"line {lineno}: bad metric name {parts[2]!r}")
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValidationError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in declared and base not in declared:
            raise ValidationError(f"line {lineno}: sample for undeclared {name!r}")
        if name.endswith("_bucket"):
            series = match.group("labels") or ""
            key = base + re.sub(r'le="[^"]*",?', "", series)
            value = float(match.group("value"))
            history = buckets.setdefault(key, [])
            if history and value < history[-1]:
                raise ValidationError(
                    f"line {lineno}: non-cumulative bucket series for {name!r}"
                )
            history.append(value)
        samples += 1
    if not declared:
        raise ValidationError("no metrics declared")
    if samples == 0:
        raise ValidationError("no samples present")
    return samples


def validate_json_snapshot(text: str) -> Dict[str, Any]:
    """Parse a JSON snapshot and check its required structure."""
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"snapshot is not valid JSON: {exc}") from exc
    for key in ("sim_time", "metrics", "sampled_spans", "slow_spans"):
        if key not in snapshot:
            raise ValidationError(f"snapshot missing required key {key!r}")
    if not isinstance(snapshot["metrics"], list):
        raise ValidationError("snapshot 'metrics' must be a list")
    for metric in snapshot["metrics"]:
        for key in ("type", "name", "labels"):
            if key not in metric:
                raise ValidationError(f"metric missing {key!r}: {metric!r}")
    return snapshot


def validate_chrome_trace(text: str) -> int:
    """Parse a Chrome trace document; returns the event count."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"trace is not valid JSON: {exc}") from exc
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValidationError("trace missing 'traceEvents' list")
    for event in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValidationError(f"trace event missing {key!r}: {event!r}")
        if event["ph"] == "X" and "dur" not in event:
            raise ValidationError(f"complete event missing 'dur': {event!r}")
    return len(events)
