"""Cycle-level timeline recording and Chrome trace-event export.

A :class:`TimelineRecorder` attaches to one memory controller (plus its
channel) and turns the run into *lanes* a human can scrub through in
Perfetto / ``chrome://tracing``:

* every issued command as a timestamped instant event on its bank lane
  (rank / bank / sub-rank spelled out),
* bank **row-open lifetimes** as spans (ACT -> PRE, including the
  refresh-path and closed-page implicit precharges),
* **data-bus occupancy** spans per pin group (full-width vs sub-rank
  lanes),
* **refresh blackouts** (REF -> +tRFC) and **mode-switch windows**
  (MRS -> +tMOD_IO) on the rank lanes,
* **read/write queue depth** samples as counter tracks, and
* per-core busy / stall spans contributed by the runner from the
  :mod:`repro.obs.stalls` logs.

Recording is strictly opt-in: the recorder joins the controller's
command listeners and the channel's burst listeners only when attached,
so full-speed runs pay nothing.  Exports: :meth:`to_chrome_trace` (the
Chrome trace-event JSON Perfetto loads), :meth:`export_jsonl` (one event
object per line, next to the :class:`~repro.sim.trace.CommandTracer`
output) and :meth:`report` (terminal per-bank utilization / row-hit-rate
tables).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: bump when the exported trace layout changes incompatibly
TIMELINE_SCHEMA_VERSION = 1

#: Chrome trace-event process ids, one per lane family
_PID_CORES = 1
_PID_BANKS = 2
_PID_BUS = 3
_PID_RANKS = 4


class TimelineRecorder:
    """Records one run's command-level timeline (opt-in listeners)."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.timing = controller.timing
        #: instant command events: (cycle, cmd, rank, bank, row, subrank)
        self.events: List[Tuple[int, str, int, int, int, Optional[int]]] = []
        #: closed row-open spans: (rank, bank, start, end, kind, row)
        self.row_spans: List[Tuple[int, int, int, int, str, int]] = []
        self._open_rows: Dict[Tuple[int, int], Tuple[int, str, int]] = {}
        #: data-bus bursts: (lane, start, end, cmd, rank)
        self.bus_spans: List[Tuple[str, int, int, str, int]] = []
        #: refresh blackouts: (rank, start, end)
        self.refresh_spans: List[Tuple[int, int, int]] = []
        #: I/O mode switches: (rank, start, end, mode)
        self.mode_spans: List[Tuple[int, int, int, str]] = []
        #: queue-depth samples: (cycle, read_depth, write_depth)
        self.queue_samples: List[Tuple[int, int, int]] = []
        #: per-core activity spans: (core, start, end, kind)
        self.core_spans: List[Tuple[int, int, int, str]] = []
        self.end_cycle: int = 0
        self._last_depths: Tuple[int, int] = (-1, -1)

    # ----------------------------------------------------------- attaching

    def attach(self) -> "TimelineRecorder":
        """Join the controller's command listeners and its channel's
        burst listeners."""
        self.controller.command_listeners.append(self.on_command)
        self.controller.channel.burst_listeners.append(self._observe_burst)
        return self

    def detach(self) -> None:
        self.controller.command_listeners.remove(self.on_command)
        self.controller.channel.burst_listeners.remove(self._observe_burst)

    # ------------------------------------------------------------ recording

    def on_command(self, cycle, command, request, *, rank: int, bank: int,
                   subarray: Optional[int], implicit: bool) -> None:
        """Controller command listener (every issued command, refresh-path
        and implicit closed-page precharges included)."""
        row = -1 if request is None else request.addr.row
        subrank = None if request is None else request.subrank
        name = command.value
        self.events.append((cycle, name, rank, bank, row, subrank))
        if cycle > self.end_cycle:
            self.end_cycle = cycle

        if name in ("ACT", "ACT_COL"):
            kind, row_index = request.row_id()
            self._open_rows[(rank, bank)] = (cycle, kind.value, row_index)
        elif name == "PRE":
            opened = self._open_rows.pop((rank, bank), None)
            if opened is not None:
                start, kind, row_index = opened
                self.row_spans.append(
                    (rank, bank, start, max(cycle, start), kind, row_index)
                )
        elif name == "REF":
            self.refresh_spans.append(
                (rank, cycle, cycle + self.timing.tRFC)
            )
        elif name == "MRS":
            mode = request.io_mode.value if request is not None else "?"
            self.mode_spans.append(
                (rank, cycle, cycle + self.timing.tMOD_IO, mode)
            )

        depths = (len(self.controller.read_queue),
                  len(self.controller.write_queue))
        if depths != self._last_depths:
            self._last_depths = depths
            self.queue_samples.append((cycle, depths[0], depths[1]))

    def _observe_burst(self, now, cmd, rank, subrank, data_start,
                       data_end) -> None:
        lane = "bus" if subrank is None else f"bus/sub{subrank}"
        self.bus_spans.append((lane, data_start, data_end, cmd.value, rank))
        if data_end > self.end_cycle:
            self.end_cycle = data_end

    def add_core_span(self, core_id: int, start: int, end: int,
                      kind: str) -> None:
        """Attach a per-core busy/stall span (from the stall logs)."""
        if end > start:
            self.core_spans.append((core_id, start, end, kind))

    def finalize(self, end_cycle: int) -> None:
        """Close any still-open row spans at the end of the run."""
        self.end_cycle = max(self.end_cycle, end_cycle)
        for (rank, bank), (start, kind, row_index) in sorted(
            self._open_rows.items()
        ):
            self.row_spans.append(
                (rank, bank, start, self.end_cycle, kind, row_index)
            )
        self._open_rows.clear()

    # ------------------------------------------------------------ summaries

    def digest(self) -> Dict[str, object]:
        """Small machine-readable summary (sweep points carry this in
        their metrics instead of the full event list)."""
        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "events": len(self.events),
            "row_spans": len(self.row_spans),
            "bus_spans": len(self.bus_spans),
            "refresh_spans": len(self.refresh_spans),
            "mode_spans": len(self.mode_spans),
            "queue_samples": len(self.queue_samples),
            "end_cycle": self.end_cycle,
        }

    def bank_table(self) -> List[Dict[str, object]]:
        """Per-bank utilization and row-hit-rate rows."""
        open_cycles: Dict[Tuple[int, int], int] = {}
        for rank, bank, start, end, _kind, _row in self.row_spans:
            key = (rank, bank)
            open_cycles[key] = open_cycles.get(key, 0) + (end - start)
        total = max(1, self.end_cycle)
        rows = []
        for rank_id, rank in enumerate(self.controller.channel.ranks):
            for bank_id, bank in enumerate(rank.banks):
                refs = bank.row_hits + bank.row_misses + bank.row_conflicts
                if not refs and (rank_id, bank_id) not in open_cycles:
                    continue
                opened = open_cycles.get((rank_id, bank_id), 0)
                rows.append({
                    "rank": rank_id,
                    "bank": bank_id,
                    "activations": bank.activations,
                    "open_cycles": opened,
                    "open_fraction": opened / total,
                    "row_hits": bank.row_hits,
                    "row_misses": bank.row_misses,
                    "row_conflicts": bank.row_conflicts,
                    "hit_rate": bank.row_hits / refs if refs else 0.0,
                })
        return rows

    def bus_busy_cycles(self) -> Dict[str, int]:
        """Busy cycles per bus lane (sub-rank lanes overlap in time)."""
        busy: Dict[str, int] = {}
        for lane, start, end, _cmd, _rank in self.bus_spans:
            busy[lane] = busy.get(lane, 0) + (end - start)
        return busy

    def report(self) -> str:
        """Terminal tables: per-bank utilization + row hit rates, bus
        lane occupancy, refresh/mode-switch counts."""
        total = max(1, self.end_cycle)
        lines = [
            f"timeline: {len(self.events)} commands over "
            f"{self.end_cycle} cycles "
            f"({self.timing.ns(self.end_cycle) / 1000:.1f} us)",
            "",
            "bank        acts   open%  hits  misses  confl  hit-rate",
        ]
        for row in self.bank_table():
            lines.append(
                f"rank{row['rank']}/bank{row['bank']:<3d}"
                f"{row['activations']:>6d}"
                f"{row['open_fraction']:>8.1%}"
                f"{row['row_hits']:>6d}{row['row_misses']:>8d}"
                f"{row['row_conflicts']:>7d}"
                f"{row['hit_rate']:>10.1%}"
            )
        busy = self.bus_busy_cycles()
        if busy:
            lines.append("")
            for lane in sorted(busy):
                lines.append(
                    f"{lane:<12s} busy {busy[lane]:>8d} cycles "
                    f"({busy[lane] / total:.1%})"
                )
        if self.refresh_spans or self.mode_spans:
            lines.append("")
            lines.append(
                f"refresh windows: {len(self.refresh_spans)}, "
                f"mode switches: {len(self.mode_spans)}"
            )
        return "\n".join(lines)

    # -------------------------------------------------------------- exports

    def _us(self, cycle: int) -> float:
        """Cycle -> microseconds (the trace-event timestamp unit)."""
        return cycle * self.timing.tck_ns / 1000.0

    def to_chrome_trace(self) -> Dict[str, object]:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        us = self._us
        trace_events: List[Dict[str, object]] = []

        def meta(pid: int, name: str, tid: Optional[int] = None,
                 tname: Optional[str] = None) -> None:
            trace_events.append({
                "ph": "M", "pid": pid, "tid": 0,
                "name": "process_name", "args": {"name": name},
            })
            if tid is not None:
                trace_events.append({
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": tname},
                })

        def span(pid: int, tid: int, name: str, start: int, end: int,
                 **args: object) -> None:
            trace_events.append({
                "ph": "X", "pid": pid, "tid": tid, "name": name,
                "ts": us(start), "dur": us(max(end, start)) - us(start),
                "cat": "sim", "args": args,
            })

        meta(_PID_CORES, "cores")
        meta(_PID_BANKS, "banks")
        meta(_PID_BUS, "data-bus")
        meta(_PID_RANKS, "ranks")

        core_tids = sorted({c for c, _s, _e, _k in self.core_spans})
        for tid in core_tids:
            meta(_PID_CORES, "cores", tid + 1, f"core{tid}")
        for core, start, end, kind in self.core_spans:
            span(_PID_CORES, core + 1, kind, start, end)

        bank_tids: Dict[Tuple[int, int], int] = {}

        def bank_tid(rank: int, bank: int) -> int:
            key = (rank, bank)
            if key not in bank_tids:
                tid = len(bank_tids) + 1
                bank_tids[key] = tid
                meta(_PID_BANKS, "banks", tid, f"rank{rank}/bank{bank}")
            return bank_tids[key]

        for rank, bank, start, end, kind, row_index in self.row_spans:
            span(_PID_BANKS, bank_tid(rank, bank),
                 f"{kind} {row_index} open", start, end,
                 rank=rank, bank=bank, row=row_index, kind=kind)
        for cycle, cmd, rank, bank, row, subrank in self.events:
            event: Dict[str, object] = {
                "ph": "i", "s": "t", "cat": "cmd", "name": cmd,
                "ts": us(cycle),
                "pid": _PID_BANKS if bank >= 0 else _PID_RANKS,
                "tid": bank_tid(rank, bank) if bank >= 0
                else max(0, rank) + 1,
                "args": {"cycle": cycle, "rank": rank, "bank": bank,
                         "row": row},
            }
            if subrank is not None:
                event["args"]["subrank"] = subrank
            trace_events.append(event)

        bus_tids: Dict[str, int] = {}
        for lane, start, end, cmd, rank in self.bus_spans:
            if lane not in bus_tids:
                tid = len(bus_tids) + 1
                bus_tids[lane] = tid
                meta(_PID_BUS, "data-bus", tid, lane)
            span(_PID_BUS, bus_tids[lane], f"{cmd} burst", start, end,
                 rank=rank)

        for rank_id in range(len(self.controller.channel.ranks)):
            meta(_PID_RANKS, "ranks", rank_id + 1, f"rank{rank_id}")
        for rank, start, end in self.refresh_spans:
            span(_PID_RANKS, rank + 1, "refresh (tRFC)", start, end)
        for rank, start, end, mode in self.mode_spans:
            span(_PID_RANKS, rank + 1, f"MRS -> {mode}", start, end,
                 mode=mode)

        for cycle, reads, writes in self.queue_samples:
            trace_events.append({
                "ph": "C", "pid": _PID_RANKS, "tid": 0,
                "name": "queue depth", "ts": us(cycle),
                "args": {"read": reads, "write": writes},
            })

        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "schema_version": TIMELINE_SCHEMA_VERSION,
                "timing": self.timing.name,
                "tck_ns": self.timing.tck_ns,
                "end_cycle": self.end_cycle,
            },
        }

    def export_jsonl(self, path: "str | Path") -> Path:
        """One command event object per line (the CommandTracer format
        plus the sub-rank lane)."""
        path = Path(path)
        with open(path, "w") as fh:
            for cycle, cmd, rank, bank, row, subrank in self.events:
                fh.write(json.dumps({
                    "cycle": cycle, "command": cmd, "rank": rank,
                    "bank": bank, "row": row, "subrank": subrank,
                }, sort_keys=True))
                fh.write("\n")
        return path


def validate_chrome_trace(payload: object) -> List[str]:
    """Check ``payload`` against the Chrome trace-event schema rules
    Perfetto enforces; returns a list of problems (empty = valid).

    Rules covered: a ``traceEvents`` list of objects; every event has a
    string ``ph``; duration events carry numeric non-negative ``ts`` and
    ``dur`` plus ``pid``/``tid``/``name``; instants carry ``ts`` and a
    valid scope; counters carry numeric ``args``; metadata events name a
    known metadata kind.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top level is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing ph")
            continue
        if ph == "M":
            if ev.get("name") not in (
                "process_name", "process_labels", "process_sort_index",
                "thread_name", "thread_sort_index",
            ):
                problems.append(f"{where}: unknown metadata {ev.get('name')!r}")
            continue
        if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
            problems.append(f"{where}: bad ts {ev.get('ts')!r}")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: bad pid {ev.get('pid')!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
            if not isinstance(ev.get("name"), str):
                problems.append(f"{where}: X event without a name")
            if not isinstance(ev.get("tid"), int):
                problems.append(f"{where}: bad tid {ev.get('tid')!r}")
        elif ph == "i":
            if ev.get("s", "t") not in ("t", "p", "g"):
                problems.append(f"{where}: bad instant scope {ev.get('s')!r}")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: counter args must be numeric")
        elif ph not in ("B", "E", "b", "e", "n", "s", "t", "f"):
            problems.append(f"{where}: unsupported ph {ph!r}")
    return problems
