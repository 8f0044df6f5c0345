"""Result reporting: CSV export and ASCII charts.

The experiment harnesses print aligned tables; this module adds two
machine/eyeball-friendly renderings a downstream user typically wants:

* :func:`results_to_csv` — flatten ``{key: RunResult}`` dictionaries (the
  shape every ``experiments.*.run`` returns) into CSV rows with the full
  metric set (throughput, per-type latencies, network, CPU);
* :func:`ascii_chart` — a log-scale ASCII line chart of named series,
  close in spirit to the paper's log-axis throughput figures.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.workloads.metrics import OpType, RunResult

__all__ = ["results_to_csv", "write_csv", "ascii_chart"]

_CSV_FIELDS = [
    "design",
    "workload",
    "num_clients",
    "window_s",
    "total_ops",
    "throughput_ops_s",
    "network_gb_s",
    "max_cpu_utilization",
    "point_ops",
    "point_mean_latency_s",
    "point_p50_latency_s",
    "point_p99_latency_s",
    "range_ops",
    "range_mean_latency_s",
    "insert_ops",
    "insert_mean_latency_s",
    "errored_ops",
    "retries",
    # Open-loop / overload accounting (docs/overload.md). Closed-loop
    # runs export accepted == total and zeros elsewhere.
    "offered_ops",
    "accepted_ops",
    "rejected_ops",
    "slo_attainment",
]


def _row(key, result: RunResult) -> Dict[str, object]:
    def latency(op_type: str, percentile=None) -> object:
        value = (
            result.latency_percentile(op_type, percentile)
            if percentile is not None
            else result.latency_mean(op_type)
        )
        return "" if value != value else value  # NaN -> empty cell

    row = {
        "design": result.design,
        "workload": result.workload,
        "num_clients": result.num_clients,
        "window_s": result.window_s,
        "total_ops": result.total_ops,
        "throughput_ops_s": result.throughput,
        "network_gb_s": result.network_gb_per_s,
        "max_cpu_utilization": (
            max(result.cpu_utilization.values()) if result.cpu_utilization else ""
        ),
        "point_ops": result.op_counts.get(OpType.POINT, 0),
        "point_mean_latency_s": latency(OpType.POINT),
        "point_p50_latency_s": latency(OpType.POINT, 50),
        "point_p99_latency_s": latency(OpType.POINT, 99),
        "range_ops": result.op_counts.get(OpType.RANGE, 0),
        "range_mean_latency_s": latency(OpType.RANGE),
        "insert_ops": result.op_counts.get(OpType.INSERT, 0),
        "insert_mean_latency_s": latency(OpType.INSERT),
        "errored_ops": result.errored_ops,
        "retries": result.retries,
        "offered_ops": result.offered_ops,
        "accepted_ops": result.accepted_ops,
        "rejected_ops": result.rejected_ops,
        "slo_attainment": (
            "" if result.slo_attainment is None else result.slo_attainment
        ),
    }
    if not isinstance(key, tuple):
        key = (key,)
    for i, part in enumerate(key):
        row[f"key_{i}"] = part
    return row


def results_to_csv(results: Mapping[object, RunResult]) -> str:
    """Render a ``run()`` result dictionary as CSV text.

    The experiment key tuple is preserved in leading ``key_i`` columns, so
    rows stay joinable with the harness that produced them.
    """
    if not results:
        raise ConfigurationError("no results to export")
    rows = [_row(key, result) for key, result in results.items()]
    key_fields = sorted(
        {field for row in rows for field in row if field.startswith("key_")}
    )
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=key_fields + _CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow({field: row.get(field, "") for field in writer.fieldnames})
    return buffer.getvalue()


def write_csv(results: Mapping[object, RunResult], path: str) -> None:
    """Write :func:`results_to_csv` output to *path*."""
    with open(path, "w", newline="") as handle:
        handle.write(results_to_csv(results))


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    x_labels: Sequence,
    height: int = 12,
    width_per_point: int = 9,
    log_scale: bool = True,
    title: str = "",
) -> str:
    """Render named *series* as a text line chart (log y-axis by default).

    Each series must have one value per entry of *x_labels*. Series are
    plotted with distinct glyphs and listed in a legend.
    """
    if not series:
        raise ConfigurationError("no series to chart")
    lengths = {len(values) for values in series.values()}
    if lengths != {len(x_labels)}:
        raise ConfigurationError("every series needs one value per x label")
    glyphs = "ox+*#@%&"
    flat = [value for values in series.values() for value in values]
    points = [value for value in flat if value > 0]
    if not points:
        raise ConfigurationError("chart needs at least one positive value")
    has_clamped = any(value <= 0 for value in flat)

    def transform(value: float) -> float:
        return math.log10(value) if log_scale else value

    lo = min(transform(p) for p in points)
    hi = max(transform(p) for p in points)
    if has_clamped:
        # Zero/negative samples have no log image; widen the axis by one
        # decade (or down to zero on linear charts) and clamp them onto
        # that floor, so e.g. a throughput dip to zero during a crash
        # renders on the bottom row instead of silently disappearing.
        lo = lo - 1.0 if log_scale else min(lo, 0.0)
    span = (hi - lo) or 1.0

    columns = len(x_labels)
    grid = [[" "] * (columns * width_per_point) for _ in range(height)]
    for index, (label, values) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for x, value in enumerate(values):
            # Non-positive values sit exactly on the clamp floor.
            level = (transform(value) - lo) / span if value > 0 else 0.0
            row = height - 1 - int(round(level * (height - 1)))
            col = x * width_per_point + width_per_point // 2
            grid[row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    top = 10 ** hi if log_scale else hi
    bottom = 10 ** lo if log_scale else lo
    for i, row in enumerate(grid):
        prefix = (
            f"{top:>10.3g} |" if i == 0
            else f"{bottom:>10.3g} |" if i == height - 1
            else f"{'':>10s} |"
        )
        lines.append(prefix + "".join(row))
    lines.append(f"{'':>10s} +" + "-" * (columns * width_per_point))
    labels = "".join(f"{str(x):^{width_per_point}}" for x in x_labels)
    lines.append(f"{'':>12s}{labels}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {label}" for i, label in enumerate(series)
    )
    lines.append(f"{'':>12s}{legend}")
    return "\n".join(lines)
