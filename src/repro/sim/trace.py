"""Command-level tracing and bandwidth analysis.

Attach a :class:`CommandTracer` to a controller (it appends itself to the
controller's command listeners) to record every issued command.  The
tracer offers the analyses a memory-system study needs when a number
looks off:

* data-bus utilization over time (who is bus-bound),
* per-bank command histograms (who is bank-conflict-bound),
* command-interval statistics (where the bubbles are),
* an exportable event list for offline inspection, including JSONL
  export into an artifacts directory (one event object per line).

``command_counts`` counts every command, refresh-path and closed-page
auto-precharges included, so it equals the controller's ``CommandStats``;
the event list, the per-bank histogram and the CAS gaps cover the
commands issued for queued requests.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..dram.commands import Command, Request
from ..dram.controller import MemoryController


@dataclass(frozen=True)
class TraceEvent:
    """One issued command."""

    cycle: int
    command: str
    rank: int
    bank: int
    row: int
    gather: int

    def as_tuple(self) -> Tuple[int, str, int, int, int, int]:
        return (self.cycle, self.command, self.rank, self.bank, self.row,
                self.gather)


class CommandTracer:
    """Records controller commands and derives summary statistics."""

    def __init__(self, controller: MemoryController,
                 keep_events: bool = True) -> None:
        self.controller = controller
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.command_counts: Counter = Counter()
        self.bank_commands: Counter = Counter()
        self._last_cas_cycle: Optional[int] = None
        self.cas_gaps: Counter = Counter()
        controller.command_listeners.append(self._observe)

    def detach(self) -> None:
        self.controller.command_listeners.remove(self._observe)

    # ------------------------------------------------------------ recording

    def _observe(self, cycle: int, command: Command,
                 request: Optional[Request], *, rank: int, bank: int,
                 subarray: Optional[int], implicit: bool) -> None:
        name = command.value
        self.command_counts[name] += 1
        if request is None or implicit:
            return
        self.bank_commands[(rank, bank)] += 1
        if self.keep_events:
            self.events.append(
                TraceEvent(cycle, name, rank, bank, request.addr.row,
                           request.gather)
            )
        if command in (Command.RD, Command.WR):
            if self._last_cas_cycle is not None:
                gap = cycle - self._last_cas_cycle
                self.cas_gaps[min(gap, 32)] += 1
            self._last_cas_cycle = cycle

    # ------------------------------------------------------------- analyses

    def bus_utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the data bus carried a burst."""
        if elapsed_cycles <= 0:
            return 0.0
        busy = self.controller.channel.data_busy_cycles
        return min(1.0, busy / elapsed_cycles)

    def hottest_banks(self, top: int = 4) -> List[Tuple[Tuple[int, int], int]]:
        return self.bank_commands.most_common(top)

    def recent(self, n: int = 64) -> List[TraceEvent]:
        """The last ``n`` recorded events."""
        return self.events[-n:]

    # --------------------------------------------------------------- export

    def export_jsonl(self, path: "str | Path") -> Path:
        """Write the recorded events as JSON Lines (one event per line),
        the format run artifacts and regression tooling diff."""
        path = Path(path)
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(asdict(event), sort_keys=True))
                fh.write("\n")
        return path

    def cas_gap_histogram(self) -> Dict[int, int]:
        """Distribution of cycles between consecutive column commands;
        a spike at tBL means bus-bound, larger modes are bubbles."""
        return dict(sorted(self.cas_gaps.items()))

    def report(self, elapsed_cycles: int) -> str:
        lines = [
            f"commands: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.command_counts.items())
            ),
            f"data-bus utilization: "
            f"{self.bus_utilization(elapsed_cycles):.1%}",
        ]
        if self.bank_commands:
            hot = ", ".join(
                f"rank{r}/bank{b}: {n}"
                for (r, b), n in self.hottest_banks()
            )
            lines.append(f"hottest banks: {hot}")
        gaps = self.cas_gap_histogram()
        if gaps:
            total = sum(gaps.values())
            mode_gap = max(gaps, key=gaps.get)
            lines.append(
                f"CAS gaps: mode={mode_gap} cycles "
                f"({gaps[mode_gap] / total:.0%} of intervals)"
            )
        return "\n".join(lines)
