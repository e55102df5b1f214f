"""Unified observability layer.

One :class:`Observation` bundles everything a run can record:

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms) -- cheap enough to stay on by default and the
  single source the power model and harnesses read from,
* a :class:`~repro.obs.spans.SpanProfiler` tagging the run's phases,
* an always-on ring buffer of the last issued DRAM commands (stall
  forensics), optionally upgraded to a full
  :class:`~repro.sim.trace.CommandTracer`,
* an always-on :class:`~repro.obs.stalls.StallAttributor` accounting
  every core cycle to busy / a stall-taxonomy reason,
* an optional :class:`~repro.obs.timeline.TimelineRecorder` capturing
  the full command/row/bus/refresh timeline for Perfetto export,
* an optional artifacts directory where the run manifest (and trace /
  timeline exports) are written as JSON / JSONL.

``run_query(..., observe=Observation(...))`` threads the bundle through
the stack; calling ``run_query`` with no observation still gets default
metrics, spans and the stall ring.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import List, Optional, Tuple

from .artifacts import (
    MANIFEST_SCHEMA_VERSION,
    ArtifactWriter,
    build_run_manifest,
    git_describe,
    to_jsonable,
)
from .diagnostics import (
    RECENT_EVENTS,
    SimulationStallError,
    StallReport,
    build_stall_report,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, SpanProfiler
from .stalls import (
    STALL_REASONS,
    StallAttributor,
    merge_breakdown,
    render_stall_report,
)
from .timeline import (
    TIMELINE_SCHEMA_VERSION,
    TimelineRecorder,
    validate_chrome_trace,
)

__all__ = [
    "ArtifactWriter",
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "Observation",
    "RECENT_EVENTS",
    "STALL_REASONS",
    "SimulationStallError",
    "Span",
    "SpanProfiler",
    "StallAttributor",
    "StallReport",
    "TIMELINE_SCHEMA_VERSION",
    "TimelineRecorder",
    "build_run_manifest",
    "build_stall_report",
    "git_describe",
    "merge_breakdown",
    "render_stall_report",
    "to_jsonable",
    "validate_chrome_trace",
]


class Observation:
    """Instrumentation bundle for one ``run_query`` invocation."""

    def __init__(
        self,
        trace: bool = False,
        keep_trace_events: bool = True,
        artifacts_dir: "Optional[str | Path]" = None,
        ring_size: int = RECENT_EVENTS,
        timeline: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.profiler = SpanProfiler()
        #: request a full CommandTracer (the runner attaches it)
        self.trace = trace
        self.keep_trace_events = keep_trace_events
        self.tracer = None  # set by the runner when trace=True
        #: request a TimelineRecorder (the runner attaches it); off by
        #: default, so full-speed runs record no timeline
        self.timeline = timeline
        self.timeline_recorder = None  # set by the runner when timeline=True
        #: always-on cycle accounting: controller waits + per-core
        #: busy/blocked intervals -> the per-run stall breakdown
        self.stalls = StallAttributor()
        self.artifacts_dir = artifacts_dir
        #: last-N issued commands, always on, for stall forensics
        self.ring: "deque[Tuple[int, str, int, int, int]]" = deque(
            maxlen=ring_size
        )
        #: manifest path once artifacts were written
        self.manifest_path: Optional[Path] = None

    # The hot-path command listener: one tuple append per issued DRAM
    # command (commands are orders of magnitude rarer than kernel events).
    def observe_command(self, cycle, command, request, *, rank, bank,
                        subarray, implicit) -> None:
        row = -1 if request is None else request.addr.row
        self.ring.append((cycle, command.value, rank, bank, row))

    def recent_events(self, n: int = RECENT_EVENTS) -> List[Tuple]:
        """The last ``n`` issued commands (at most the ring's size)."""
        return list(self.ring)[-n:]
