"""Critical-path attribution: decompose an op span's wall time into segments.

The paper's whole argument is a latency decomposition (Section 2.3): which
traversal design wins depends on *where* an operation's time goes — NIC
queueing, wire flight, server queue wait, server CPU, lock spinning. While
observability is enabled, the fabric logs ``(label, start, end)`` stamps
and the five raw timestamps of every wire leg onto the operation they
belong to (see ``Observability.stamp`` / ``fabric.stamped_leg``), and every
completed verb leaves a VERB window in the same log. When
:meth:`~repro.obs.spans.OpSpan.as_dict` renders a log, :func:`leg_segments`
splits each leg into queueing and flight; this module then turns the
span dict's intervals into a **closed decomposition**: a mapping from the
segment taxonomy below to seconds, whose values sum to the span's
duration — exactly, for every sampled op (the reconciliation invariant
``tests/test_obs_attribution.py`` pins).

Closed segment taxonomy (``SEGMENTS``), highest attribution priority
first — when stamps overlap, each instant of the op belongs to the
highest-priority covering label:

* ``admission_reject`` — round trips that ended in an admission bounce
  (token bucket / bounded queue), including the rejected wire legs;
* ``client_backoff`` — retry timeout detection and backoff waits, plus
  application-level re-offer backoff in the open-loop runner;
* ``lock_wait`` — spin-pause rounds waiting out somebody else's node lock
  (client-side one-sided spins and server-side worker spins alike);
* ``server_cpu`` — RPC handler execution on a memory-server worker
  (fixed dispatch cost + handler + serialization + mirror-before-ack);
* ``server_rpc_queue`` — an envelope's wait in the SRQ / bulkhead queue
  between NIC arrival and worker dequeue;
* ``nic_queue`` — doorbell-to-wire wait on a busy TX channel and
  arrival-to-drain wait on a busy RX channel;
* ``network_flight`` — wire occupancy + switch propagation of every verb
  leg (the verb windows themselves are the lowest-priority base cover,
  so un-stamped parts of a round trip land here, including the
  co-located local-copy fast path);
* ``client_think`` — the residual: time the op spent in client-side
  compute between verbs (page decode, binary search, session logic).

Attribution is a pure post-processing pass over rendered span dicts —
it allocates nothing on the hot path and never runs when disabled.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "SEGMENTS",
    "SEGMENT_PRIORITY",
    "leg_segments",
    "attribute_intervals",
    "attribute_span_dict",
    "aggregate_attributions",
    "span_duration",
    "typical_vs_tail",
]

#: The closed taxonomy, in attribution-priority order (highest first).
#: ``client_think`` is the residual and never stamped explicitly.
SEGMENTS: Tuple[str, ...] = (
    "admission_reject",
    "client_backoff",
    "lock_wait",
    "server_cpu",
    "server_rpc_queue",
    "nic_queue",
    "network_flight",
    "client_think",
)

#: label -> priority rank (lower number wins an overlap).
SEGMENT_PRIORITY: Dict[str, int] = {label: i for i, label in enumerate(SEGMENTS)}

_THINK_RANK = SEGMENT_PRIORITY["client_think"]


def leg_segments(
    started_at: float,
    tx_start: float,
    arrival: float,
    rx_start: float,
    finished_at: float,
) -> List[Tuple[str, float, float]]:
    """One wire leg's anatomy as segments: ``nic_queue`` for the wait on a
    busy TX line (doorbell to *tx_start*) and on a busy RX line (*arrival*
    to *rx_start*), ``network_flight`` for wire occupancy + propagation.
    The non-empty ones tile ``[started_at, finished_at)`` exactly."""
    cuts = (
        ("nic_queue", started_at, tx_start),
        ("network_flight", tx_start, arrival),
        ("nic_queue", arrival, rx_start),
        ("network_flight", rx_start, finished_at),
    )
    return [cut for cut in cuts if cut[2] > cut[1]]


def attribute_intervals(
    started_at: float,
    finished_at: float,
    intervals: Iterable[Tuple[str, float, float]],
) -> Dict[str, float]:
    """Decompose ``[started_at, finished_at)`` over labelled *intervals*.

    Runs a boundary sweep: the op window is cut at every (clipped)
    interval edge and each elementary slice is charged to the
    highest-priority label covering it; uncovered slices become
    ``client_think``. The returned dict has every taxonomy label (zeros
    included). ``client_think`` is computed as the exact residual
    ``duration - covered``, so the values reconcile against the span
    duration to float precision no matter how the stamps interleave.
    """
    duration = finished_at - started_at
    out = {label: 0.0 for label in SEGMENTS}
    if duration <= 0.0:
        return out
    clipped: List[Tuple[float, float, int]] = []
    for label, start, end in intervals:
        rank = SEGMENT_PRIORITY.get(label)
        if rank is None or rank >= _THINK_RANK:
            continue
        start = max(start, started_at)
        end = min(end, finished_at)
        if end > start:
            clipped.append((start, end, rank))
    if not clipped:
        out["client_think"] = duration
        return out
    boundaries = sorted(
        {start for start, _end, _rank in clipped}
        | {end for _start, end, _rank in clipped}
    )
    # Sweep the elementary slices between consecutive boundaries; active
    # intervals are tracked by a sort-merge (intervals sorted by start).
    clipped.sort(key=lambda item: item[0])
    active: List[Tuple[float, float, int]] = []
    next_interval = 0
    covered = 0.0
    for i in range(len(boundaries) - 1):
        lo = boundaries[i]
        hi = boundaries[i + 1]
        while next_interval < len(clipped) and clipped[next_interval][0] <= lo:
            active.append(clipped[next_interval])
            next_interval += 1
        if active:
            active = [item for item in active if item[1] > lo]
        best = _THINK_RANK
        for _start, _end, rank in active:
            if rank < best:
                best = rank
        if best < _THINK_RANK:
            width = hi - lo
            out[SEGMENTS[best]] += width
            covered += width
    residual = duration - covered
    if residual > 0.0:
        out["client_think"] = residual
    elif residual < 0.0:
        # Float rounding pushed the covered total a hair past the span
        # duration; shave the excess off the largest bucket so the
        # decomposition still sums to the duration.
        largest = max(out, key=lambda label: out[label])
        out[largest] += residual
    return out


def _iter_span_dicts(span: Mapping[str, Any]) -> Iterable[Mapping[str, Any]]:
    yield span
    for child in span.get("children", ()):
        yield from _iter_span_dicts(child)


def _span_end(span: Mapping[str, Any]) -> float:
    """When a span dict finished (where it started, while unfinished)."""
    finished = span["finished_at"]
    return span["started_at"] if finished is None else finished


def span_duration(span: Mapping[str, Any]) -> float:
    """A span dict's wall time in seconds (zero while unfinished)."""
    return _span_end(span) - span["started_at"]


def attribute_span_dict(span: Mapping[str, Any]) -> Dict[str, float]:
    """Attribution of one span dict (the shape :meth:`OpSpan.as_dict`
    exports — what snapshots and flight bundles carry).

    Stamped segments live on the root span; verb windows are collected
    from the whole subtree as the lowest-priority ``network_flight``
    base cover.
    """
    started = span["started_at"]
    finished = _span_end(span)
    intervals = [
        (label, float(start), float(end))
        for label, start, end in span.get("segments", ())
    ]
    intervals += [
        ("network_flight", verb["started_at"], verb["finished_at"])
        for node in _iter_span_dicts(span)
        for verb in node.get("verbs", ())
    ]
    return attribute_intervals(started, finished, intervals)


def aggregate_attributions(
    attributions: Iterable[Mapping[str, float]],
) -> Dict[str, float]:
    """Mean share (fraction of op duration) per segment over many ops.

    Each op is normalized to its own duration first so a single slow op
    cannot drown the population — the result answers "where does a
    typical op in this set spend its time".
    """
    totals = {label: 0.0 for label in SEGMENTS}
    count = 0
    for attribution in attributions:
        duration = sum(attribution.get(label, 0.0) for label in SEGMENTS)
        if duration <= 0.0:
            continue
        count += 1
        for label in SEGMENTS:
            totals[label] += attribution.get(label, 0.0) / duration
    if count == 0:
        return totals
    return {label: totals[label] / count for label in SEGMENTS}


def typical_vs_tail(
    attributed: Iterable[Tuple[float, Mapping[str, float]]],
) -> Dict[str, Any]:
    """Shares of the typical ops (the fastest half) against the tail's
    (the slowest 1 %), each at least one op, over ``(duration,
    attribution)`` pairs in a stable ascending sort by duration: ``{}``
    for no ops, else both shares, their ``delta`` and both op counts."""
    ordered = sorted(attributed, key=lambda item: item[0])
    if not ordered:
        return {}
    typical = ordered[: max(1, len(ordered) // 2)]
    tail = ordered[-max(1, len(ordered) // 100):]
    p50 = aggregate_attributions(attribution for _d, attribution in typical)
    p99 = aggregate_attributions(attribution for _d, attribution in tail)
    return {
        "p50_share": p50,
        "p99_share": p99,
        "delta": {label: p99[label] - p50[label] for label in SEGMENTS},
        "typical_ops": len(typical),
        "tail_ops": len(tail),
    }
