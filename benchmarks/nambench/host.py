"""Host-side measurement tools: the calibration loop, the benchmark's own
spans, and the ``host`` block of a record.

Host time on the sizing box moves by tens of percent between phases that
last from half a second to minutes (a shared 2-core VM). Every host time
nambench reports is therefore *calibrated*: divided by how long a fixed
piece of stdlib-only work took just before and just after it, and scaled
so that a host on which that work takes ``CALIB_NOMINAL_S`` reads real
seconds. The loop uses no file of the repository, so a commit cannot
change it.
"""

from __future__ import annotations

import bisect
import heapq
import os
import platform
import resource
import statistics
import struct
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Wall time of one calibration loop on the sizing box; calibrated host
#: times are ``wall * CALIB_NOMINAL_S / calibration wall``.
CALIB_NOMINAL_S = 0.100
#: Shape of the calibration loop (a miniature closed-loop event
#: simulation: generator resumes, a heap of tuples, a page-sized struct
#: decode, a bisect and a dict store per step — the instruction mix the
#: simulator itself runs, so both slow down together).
CALIB_CLIENTS = 30
CALIB_STEPS_PER_CLIENT = 2_800
#: Calibration spread (IQR / median within one run) above which the run is
#: flagged ``host.noisy``.
NOISY_SPREAD = 0.15

_PAGE = struct.Struct("<" + "Q" * 66)


def calibration_loop() -> float:
    """Run the fixed calibration work; returns its wall seconds."""
    started = time.perf_counter()
    page = bytes(_PAGE.size)
    keys = list(range(0, 480, 8))
    memo: Dict[Any, Any] = {}
    heap: List[Any] = []
    push, pop = heapq.heappush, heapq.heappop

    def client(client_id: int) -> Iterator[float]:
        for step in range(CALIB_STEPS_PER_CLIENT):
            memo[(client_id, step & 63)] = _PAGE.unpack_from(page)
            bisect.bisect_right(keys, (step * 7) % 480)
            yield 1.5e-6 + (step & 3) * 1e-7

    for client_id in range(CALIB_CLIENTS):
        push(heap, (0.0, client_id, client(client_id)))
    sequence = CALIB_CLIENTS
    while heap:
        now, _seq, process = pop(heap)
        try:
            delay = process.send(None)
        except StopIteration:
            continue
        sequence += 1
        push(heap, (now + delay, sequence, process))
    return time.perf_counter() - started


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


class Spans:
    """The benchmark's own wall-clock spans, kept in memory.

    One record per span: id, parent id, name, workload, rep, host
    start/end (``time.perf_counter`` seconds). Spans wrap calls into the
    program's public functions only; nothing under ``src/`` is touched.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "workload": self.workload,
            "rep": rep,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Wall seconds spent in all closed spans called *name*."""
        return sum(
            record["end"] - record["start"]
            for record in self.records
            if record["name"] == name and record["end"] is not None
        )

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """The spans as Chrome trace "X" events on process *pid*. Their
        clock is host microseconds since the first span; the hub's op
        spans in the same file run on simulated microseconds."""
        origin = self.records[0]["start"] if self.records else 0.0
        return [
            {
                "name": record["name"],
                "cat": "nambench",
                "ph": "X",
                "ts": (record["start"] - origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {
                    "id": record["id"],
                    "parent": record["parent"],
                    "workload": record["workload"],
                    "rep": record["rep"],
                },
            }
            for record in self.records
            if record["end"] is not None
        ]


class Calibrator:
    """Runs calibration loops under a ``calib`` span and remembers them."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.walls: List[float] = []
        # The first loop of a process runs cold (about 1.4x); drop it.
        calibration_loop()

    def calibrate(self) -> float:
        with self.spans.span("calib"):
            wall = calibration_loop()
        self.walls.append(wall)
        return wall


def calibrated(wall_s: float, calibration_s: float) -> float:
    """*wall_s* expressed in seconds of the nominal host."""
    return wall_s * CALIB_NOMINAL_S / calibration_s


def peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block(
    calibrator: Calibrator, rep_walls: Sequence[float], total_wall_s: float
) -> Dict[str, Any]:
    """What a reader needs to judge the host this record was measured on."""
    calib_spread = spread(calibrator.walls)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": list(calibrator.walls),
        "calibration_median_s": statistics.median(calibrator.walls),
        "calibration_spread": calib_spread,
        "noisy": calib_spread > NOISY_SPREAD,
        "rep_wall_s": list(rep_walls),
        "reps": len(rep_walls),
        "total_wall_s": total_wall_s,
    }
