"""Reference-speed probes: host times at a fixed host speed.

The benchmark runs on a few vCPUs of a shared host whose speed shifts by
up to 1.6x for seconds to minutes at a time, while the same fixed work
varies by only a few percent within one such phase.  So :func:`probe`
-- a fixed pure-Python work unit of object, dict, heap and list
operations, the simulator's mix, and independent of the ``repro``
sources -- runs just before each pass starts, right after its set-up, at
its end, and before a point or fuzz case once :data:`PROBE_EVERY_S` has
passed since the process last probed.  The times the benchmark reports
are *reference seconds*: raw host time scaled by
``REFERENCE_PROBE_S / probe time`` at that moment, i.e. the time the work
would take on a host that runs the probe in :data:`REFERENCE_PROBE_S`.

Because the probe is not ``repro`` code, a change that speeds up the
simulator lowers reference seconds exactly as it lowers raw seconds; a
host phase that slows everything down moves both the work and the probe
and cancels out.  Each pass also records its raw times.
"""

from __future__ import annotations

import gc
import statistics
import time
from heapq import heappop, heappush

#: the probe's duration on a quiet phase of the host the benchmark was
#: tuned on (2-vCPU Xeon VM, CPython 3); only scales the reported values
REFERENCE_PROBE_S = 0.005

#: at most one probe per process in this many seconds of work
PROBE_EVERY_S = 0.25

_PROBE_OPS = 6000


class _Cell:
    __slots__ = ("key", "value")


def probe() -> float:
    """Run the fixed reference work once; returns its duration.  The
    cyclic garbage collector is off meanwhile, so the probe's own
    allocations never make it scan the simulator's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        cells, heap, total = {}, [], 0
        for i in range(_PROBE_OPS):
            cell = _Cell()
            cell.key, cell.value = i, i * 3
            cells[i & 1023] = cell
            heappush(heap, ((i * 7919) % 1009, i))
            if len(heap) > 64:
                total += heappop(heap)[1]
            total += cells.get((i * 13) & 1023, cell).value
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """The probes of one process: ``(monotonic start, duration)`` pairs,
    at most one per :data:`PROBE_EVERY_S` unless forced."""

    def __init__(self) -> None:
        self.samples: list = []
        self._due = 0.0

    def maybe_probe(self, force: bool = False) -> None:
        """Probe if one is due, or if ``force``."""
        now = time.monotonic()
        if force or now >= self._due:
            self.samples.append((now, probe()))
            self._due = time.monotonic() + PROBE_EVERY_S


def _factors(samples) -> list:
    """``(time, speed factor)`` of each probe, in time order; a probe's
    duration is first replaced by the median of it and its two
    neighbours, so one probe disturbed by an interrupt moves nothing while
    a change of host phase still shows from the next probe on."""
    ordered = sorted((t, d) for t, d in samples)
    return [(t, REFERENCE_PROBE_S / statistics.median(
                 d for _t, d in ordered[max(0, i - 1):i + 2]))
            for i, (t, _d) in enumerate(ordered)]


def reference_seconds(samples, start: float, end: float,
                      own=()) -> float:
    """Reference seconds of the host interval ``[start, end]``: the
    integral of the speed factor of ``samples``, linear between the
    probes that bracket each instant (constant before the first and after
    the last), minus the reference cost of the probes of ``own`` -- those
    that ran inside the interval on the timed process itself."""
    if end <= start:
        return 0.0
    points = _factors(samples)
    inside = sum(1 for t, _ in own if start <= t < end)
    times = [start] + [t for t, _ in points if start < t < end] + [end]

    def factor(at: float) -> float:
        if at <= points[0][0]:
            return points[0][1]
        for (t0, f0), (t1, f1) in zip(points, points[1:]):
            if at <= t1 and t1 > t0:
                return f0 + (f1 - f0) * (at - t0) / (t1 - t0)
        return points[-1][1]

    area = sum((b - a) * (factor(a) + factor(b)) / 2
               for a, b in zip(times, times[1:]))
    return area - REFERENCE_PROBE_S * inside
