"""Cycle-level memory controller.

One :class:`MemoryController` owns one channel and schedules commands with
the FR-FCFS policy under an open-page row-buffer policy (Table 2).  Writes
are buffered in a write queue (capacity 32) and drained when the queue
crosses a high watermark or when no reads are pending.

SAM support: every request carries the I/O mode it needs (regular ``x4`` or
stride ``Sx4``).  When the targeted rank is in the wrong mode the controller
issues an MRS command first, which stalls the rank for tMOD_IO (= tRTR,
Section 5.3).  Column-wise activations (SAM-sub / RC-NVM) are ACT_COL
commands: they occupy the bank exactly like a row activation but open a
"column row", so row-wise and column-wise accesses to the same bank conflict
in the row buffer -- the effect that degrades SAM-sub and RC-NVM on
row-friendly (Qs) queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..kernel import Kernel
from ..obs.stalls import (
    CCD_BUS,
    MODE_SWITCH,
    REFRESH,
    SUBARRAY,
    TFAW,
    TRAS,
    TRCD,
    TRP,
    WRITE_DRAIN,
)
from .bank import FOREVER
from .channel import ChannelState
from .commands import Command, IOMode, Request, RequestType, RowKind
from .geometry import Geometry
from .timing import TimingParams


class QueueFullError(RuntimeError):
    """A request was submitted to a full controller queue.

    Callers are expected to consult :meth:`MemoryController.can_accept`
    first, so reaching this is a flow-control bug; the structured fields
    (and the ``controller.queue_full_rejects`` metric) exist so that bug
    is diagnosable instead of a bare string.
    """

    def __init__(self, kind: str, capacity: int, core: Optional[int],
                 cycle: int) -> None:
        who = f"core {core}" if core is not None else "an uncored requester"
        super().__init__(
            f"memory controller {kind} queue full "
            f"(capacity {capacity}) rejecting a request from {who} "
            f"at cycle {cycle}"
        )
        self.kind = kind
        self.capacity = capacity
        self.core = core
        self.cycle = cycle


@dataclass
class ControllerConfig:
    """Scheduling knobs (defaults per Table 2)."""

    write_queue_capacity: int = 32
    write_high_watermark: int = 24
    write_low_watermark: int = 8
    read_queue_capacity: int = 64
    refresh_enabled: bool = True
    #: "open" (Table 2 default) keeps rows open for FR-FCFS row hits;
    #: "closed" auto-precharges after every column command (RDA/WRA).
    page_policy: str = "open"
    #: the slow behavioral reference: re-derive every queued request's
    #: next command on every wake-up (no readiness index) and re-lower
    #: every blocked writeback on every poll (no futility gate).  Command
    #: streams, cycles and stall ledgers are identical either way
    #: (enforced by the fast-vs-reference batteries).
    reference: bool = False


#: how a readiness entry's earliest time combines with the shared-bus
#: state at lookup time: no bus term (ACT/PRE), the CAS data-bus fit, or
#: the MRS data-bus drain.  Bus state changes on every issue, so folding
#: it into the cached entry would defeat the cache.
_BUS_NONE = 0
_BUS_CAS = 1
_BUS_MRS = 2

#: I/O modes as plain ints for the request sharing key
_IO_CODES = {mode: code for code, mode in enumerate(IOMode)}


@dataclass
class CommandStats:
    """Counts consumed by the power model and the experiment reports."""

    acts: int = 0
    col_acts: int = 0
    reads: int = 0
    writes: int = 0
    gather_reads: int = 0
    gather_writes: int = 0
    stride_mode_reads: int = 0  # reads served in an Sx4 mode (SAM-IO power)
    internal_bursts: int = 0
    precharges: int = 0
    refreshes: int = 0
    mode_switches: int = 0
    sa_sels: int = 0  # MASA subarray re-designations
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    read_latency_total: int = 0
    read_count_for_latency: int = 0

    @property
    def avg_read_latency(self) -> float:
        if not self.read_count_for_latency:
            return 0.0
        return self.read_latency_total / self.read_count_for_latency


class MemoryController:
    """FR-FCFS, open-page controller for a single channel."""

    def __init__(
        self,
        kernel: Kernel,
        timing: TimingParams,
        geometry: Geometry | None = None,
        config: ControllerConfig | None = None,
        channel_id: int = 0,
        salp: str = "none",
    ) -> None:
        self.kernel = kernel
        self.timing = timing
        self.geometry = geometry or Geometry()
        self.config = config or ControllerConfig()
        self.channel_id = channel_id
        #: subarray-level-parallelism mode: "none" (conventional banks,
        #: the one-subarray case of the same bank model), "salp1",
        #: "salp2" or "masa"
        self.salp = salp
        self.channel = ChannelState(timing, self.geometry, salp=salp)
        #: command listeners, each called as ``(cycle, command, request,
        #: *, rank, bank, subarray, implicit)`` on every command the
        #: controller issues: queued commands, the refresh path's PREs
        #: and REF (``request`` None, ``bank`` -1 for REF), and the
        #: closed-page auto-precharge (``implicit``: it rides on its CAS
        #: instead of occupying the command bus, and may carry a future
        #: cycle).  ``subarray`` is the subarray a PRE closes, else None.
        #: The tracer, the obs stall ring, the timeline and the protocol
        #: checker attach by appending and detach by removing themselves.
        self.command_listeners: List[Callable] = []
        #: optional obs.metrics.Histogram observing completed-read latency
        #: in cycles (one observe per RD command when attached)
        self.latency_hist = None
        #: optional obs.stalls.StallLedger; every scheduling wait is
        #: annotated with the timing constraint that caused it
        self.stall_ledger = None
        #: optional obs.metrics.MetricsRegistry for controller-side
        #: counters (queue_full_rejects)
        self.metrics = None
        #: optional callback fired as ``(request,)`` whenever a request
        #: leaves a queue (a RD/WR issued), i.e. whenever a queue slot
        #: frees.  The memory system uses it to retry blocked writebacks
        #: the moment a slot opens instead of polling on a fixed
        #: interval.
        self.slot_listener = None
        self.read_queue: List[Request] = []
        self.write_queue: List[Request] = []
        self.stats = CommandStats()
        self._draining_writes = False
        self._wakeup_at: Optional[int] = None
        self._last_cas_group: Optional[Tuple[int, int]] = None
        # per-wakeup memo of earliest_cas_for_bus results, valid for one
        # data-bus epoch: queued requests overwhelmingly share their
        # (command, rank, subrank) bus signature
        self._bus_memo: dict = {}
        self._bus_memo_version: int = -1
        self._next_refresh = [
            timing.tREFI * (i + 1) // max(1, self.geometry.ranks)
            for i in range(self.geometry.ranks)
        ]

    # ------------------------------------------------------------------ API

    def submit(self, request: Request) -> None:
        """Accept a request.  Raises :class:`QueueFullError` if the relevant
        queue is full; callers should consult :meth:`can_accept` first."""
        if not self.can_accept(request):
            kind = "read" if request.is_read else "write"
            capacity = (
                self.config.read_queue_capacity
                if request.is_read
                else self.config.write_queue_capacity
            )
            if self.metrics is not None:
                self.metrics.counter("controller.queue_full_rejects").inc()
            raise QueueFullError(
                kind, capacity, request.source_core, self.kernel.now
            )
        request.arrival = self.kernel.now
        addr = request.addr
        rank = self.channel.ranks[addr.rank]
        request._rank = rank
        bank = rank.banks[addr.bank]
        request._bank = bank
        request._sub = bank.sub_for_row(addr.row)
        # everything `_entry_terms` and the bus signature read from the
        # request, as plain ints (an Enum member would hash through
        # Python-level ``Enum.__hash__`` on every scan)
        request._sched_key = (
            addr.rank, addr.bank, addr.row,
            request.row_kind is RowKind.ROW, request.is_read,
            _IO_CODES[request.io_mode], request.subrank,
        )
        if request.is_read:
            self.read_queue.append(request)
        else:
            self.write_queue.append(request)
        self._schedule_wakeup(self.kernel.now)

    def can_accept(self, request: Request) -> bool:
        if request.is_read:
            return len(self.read_queue) < self.config.read_queue_capacity
        return len(self.write_queue) < self.config.write_queue_capacity

    def idle(self) -> bool:
        return not self.read_queue and not self.write_queue

    # ------------------------------------------------------ scheduling core

    def _schedule_wakeup(self, when: int) -> None:
        when = max(when, self.kernel.now)
        if self._wakeup_at is not None and self._wakeup_at <= when:
            # the pending earlier wake-up stands
            return
        # Supersede by scheduling a fresh, earlier event; the later one
        # stays in the heap and fires stale (the `_wakeup` guard drops
        # it).  Cancelling it would be cheaper but changes behavior: if
        # the controller later re-arms that same time, the lingering
        # event -- the oldest one scheduled for it -- is the one that
        # acts, at its *original* sequence position within the cycle
        # (before any same-cycle events scheduled later).  The stall
        # ledger depends on that ordering.
        self._wakeup_at = when
        self.kernel.schedule_at(when, self._wakeup)

    def _wakeup(self) -> None:
        # Drop stale events: only the event matching the armed time acts.
        # (When an earlier wake-up is scheduled over a pending later one,
        # the later event still fires; acting on it would fork a second
        # self-perpetuating wake-up chain.)  Superseded events are never
        # cancelled.
        if self._wakeup_at != self.kernel.now:
            return
        self._wakeup_at = None
        next_time = self._try_issue(self.kernel.now)
        if next_time is not None:
            self._schedule_wakeup(next_time)

    def _refresh_due(self, now: int) -> Optional[int]:
        """Rank index whose refresh deadline has passed, if any."""
        if not self.config.refresh_enabled or self.timing.tREFI <= 0:
            return None
        for rank_id, deadline in enumerate(self._next_refresh):
            if now >= deadline:
                return rank_id
        return None

    def _try_issue(self, now: int) -> Optional[int]:
        """Issue at most one command; return the next wake-up time."""
        if self.channel.next_command > now:
            self._note_wait(now, self.channel.next_command, CCD_BUS)
            return self.channel.next_command

        rank_id = self._refresh_due(now)
        if rank_id is not None:
            wake = self._issue_refresh_step(now, rank_id)
            if wake is not None:
                self._note_wait(now, wake, REFRESH)
            return wake

        queue = self._active_queue()
        if queue is None:
            return self._next_refresh_deadline()

        choice = self._frfcfs_choose(now, queue)
        if choice is None:
            return self._next_refresh_deadline()
        request, command, earliest, reason = choice
        if queue is self.write_queue and self.read_queue:
            # reads are parked behind the drain, whatever the write's own
            # binding constraint is
            reason = WRITE_DRAIN
        if earliest > now:
            wake = min(earliest, self._next_refresh_deadline() or FOREVER)
            self._note_wait(now, wake, reason)
            return wake
        if queue is self.write_queue and self.read_queue:
            self._note_wait(now, now + 1, WRITE_DRAIN)
        self._issue(now, request, command, queue)
        return now + 1 if (self.read_queue or self.write_queue) else None

    def _note_wait(self, start: int, end: int, reason: str) -> None:
        if self.stall_ledger is not None:
            self.stall_ledger.note(start, end, reason)

    def _next_refresh_deadline(self) -> Optional[int]:
        if not self.config.refresh_enabled or self.timing.tREFI <= 0:
            return None
        if self.idle():
            return None  # nothing to do; refresh bookkeeping resumes on submit
        return min(self._next_refresh)

    def _active_queue(self) -> Optional[List[Request]]:
        """Pick the queue to serve, honouring write-drain watermarks."""
        cfg = self.config
        if self._draining_writes:
            if len(self.write_queue) <= cfg.write_low_watermark:
                self._draining_writes = False
            else:
                return self.write_queue
        if len(self.write_queue) >= cfg.write_high_watermark:
            self._draining_writes = True
            return self.write_queue
        if self.read_queue:
            return self.read_queue
        if self.write_queue:
            return self.write_queue
        return None

    def _frfcfs_choose(
        self, now: int, queue: List[Request]
    ) -> Optional[Tuple[Request, Command, int, str]]:
        """FR-FCFS: first ready row-hit column command, else oldest ready
        command; if nothing is ready now, the soonest candidate.

        With the readiness index (the default) each queued request's
        (command, earliest, reason) triple is cached on the request and
        re-derived only when the bank/rank state it reads has moved (the
        version counters); the shared-bus terms, which move on every
        issue, are applied at lookup time via a per-epoch memo.  Stale
        requests with the same ``_sched_key`` share one derivation per
        scan: nothing the terms read changes during a scan, and requests
        queued to one bank nearly always want the same row.  The
        ``future`` minimum keeps wakeup scheduling exact: the controller
        still sleeps to the soonest candidate, never past it.
        """
        if self.config.reference:
            return self._frfcfs_choose_recompute(now, queue)
        ready_cas: Optional[Tuple[Request, Command, int, str]] = None
        ready_other: Optional[Tuple[Request, Command, int, str]] = None
        future: Optional[Tuple[Request, Command, int, str]] = None
        last_group = self._last_cas_group
        chan = self.channel
        if self._bus_memo_version != chan.data_version:
            self._bus_memo.clear()
            self._bus_memo_version = chan.data_version
        memo = self._bus_memo
        memo_get = memo.get
        fresh: dict = {}  # _sched_key -> entry derived during this scan
        mrs = Command.MRS
        sa_sel = Command.SA_SEL
        for index, request in enumerate(queue):
            bank = request._bank
            entry = request._sched_cache
            if (entry is None or entry[0] != bank.version
                    or entry[1] != request._rank.version
                    or entry[2] != request._sub.version):
                entry = fresh.get(request._sched_key)
                if entry is None:
                    entry = fresh[request._sched_key] = \
                        self._index_entry(request)
                request._sched_cache = entry
            command = entry[3]
            if (command is mrs or command is sa_sel) and index > 0:
                # Only the oldest request may flip the rank's I/O mode or
                # the bank's subarray designation; otherwise requests
                # needing different modes (or different subarrays, under
                # MASA) thrash MRS / SA_SEL while waiting out tRCD, each
                # flip pushing the column gates further out.  Skipped
                # candidates are retried whenever the oldest request
                # makes progress.
                continue
            earliest = entry[4]
            reason = entry[5]
            bus_kind = entry[6]
            if bus_kind == _BUS_CAS:
                bus_t = memo_get(entry[7])
                if bus_t is None:
                    bus_t = chan.earliest_cas_for_bus(
                        command, request.addr.rank, entry[8], request.subrank
                    )
                    memo[entry[7]] = bus_t
                if bus_t > earliest:
                    earliest, reason = bus_t, CCD_BUS
            elif bus_kind == _BUS_MRS:
                data_free = chan.data_free
                if data_free > earliest:
                    earliest = data_free
            if earliest <= now:
                if bus_kind == _BUS_CAS:
                    # Bank-group rotation: a CAS to a different bank group
                    # than the previous one runs at tCCD_S instead of
                    # tCCD_L, so prefer it over the oldest ready CAS.
                    group = entry[9]
                    if group != last_group:
                        return (request, command, earliest, reason)
                    if ready_cas is None:
                        ready_cas = (request, command, earliest, reason)
                elif ready_other is None:
                    ready_other = (request, command, earliest, reason)
            elif future is None or earliest < future[2]:
                future = (request, command, earliest, reason)
        if ready_cas is not None:
            return ready_cas
        return ready_other if ready_other is not None else future

    def _index_entry(self, request: Request) -> tuple:
        """A fresh readiness-index entry for ``request``: the version
        stamps, :meth:`_entry_terms`, and the lookup-time bus signature."""
        rank = request._rank
        bank = request._bank
        sub = request._sub
        terms = self._entry_terms(request, rank, bank)
        addr = request.addr
        if terms[3] == _BUS_CAS:
            # Pre-resolve the per-epoch memo signature with an int flag
            # instead of the Command member: tuple hashing would
            # otherwise go through Python-level ``Enum.__hash__`` on
            # every lookup.
            is_rd = terms[0] is Command.RD
            extra = (
                (0 if is_rd else 1, addr.rank, request.subrank),
                RequestType.READ if is_rd else RequestType.WRITE,
                (addr.rank, addr.bank_group),
            )
        else:
            extra = (None, None, (addr.rank, addr.bank_group))
        return (bank.version, rank.version, sub.version) + terms + extra

    def _frfcfs_choose_recompute(
        self, now: int, queue: List[Request]
    ) -> Optional[Tuple[Request, Command, int, str]]:
        """Old-style scan: re-derive every queued request's next command
        on every wakeup.  The behavioral reference the readiness index is
        tested against (``ControllerConfig(reference=True)``)."""
        ready_cas: Optional[Tuple[Request, Command, int, str]] = None
        ready_other: Optional[Tuple[Request, Command, int, str]] = None
        future: Optional[Tuple[Request, Command, int, str]] = None
        for index, request in enumerate(queue):
            command, earliest, reason = self._next_command(now, request)
            if (command is Command.MRS
                    or command is Command.SA_SEL) and index > 0:
                continue
            if earliest <= now:
                if command in (Command.RD, Command.WR):
                    group = (request.addr.rank, request.addr.bank_group)
                    if group != self._last_cas_group:
                        return (request, command, earliest, reason)
                    if ready_cas is None:
                        ready_cas = (request, command, earliest, reason)
                elif ready_other is None:
                    ready_other = (request, command, earliest, reason)
            elif future is None or earliest < future[2]:
                future = (request, command, earliest, reason)
        if ready_cas is not None:
            return ready_cas
        return ready_other if ready_other is not None else future

    @staticmethod
    def _binding(*terms: Tuple[int, str]) -> Tuple[int, str]:
        """Max over ``(time, reason)`` terms; ties keep the earlier term,
        so list the more specific timing reasons first."""
        best_time, best_reason = terms[0]
        for time, reason in terms[1:]:
            if time > best_time:
                best_time, best_reason = time, reason
        return best_time, best_reason

    def _next_command(
        self, now: int, request: Request
    ) -> Tuple[Command, int, str]:
        """The next command ``request`` needs, its earliest issue time, and
        the stall-taxonomy tag of the binding timing constraint (full
        recompute: stateful terms + the shared-bus terms)."""
        rank = self.channel.ranks[request.addr.rank]
        bank = rank.banks[request.addr.bank]
        command, earliest, reason, bus_kind = self._entry_terms(
            request, rank, bank
        )
        bus_floor = max(now, self.channel.next_command)
        if bus_kind == _BUS_MRS:
            # An MRS can issue once the rank's in-flight CAS work is done
            # and the data bus has drained (the switch flips DQ drivers).
            earliest = max(earliest, self.channel.data_free, bus_floor)
            return (command, earliest, reason)
        if bus_kind == _BUS_CAS:
            req_type = (
                RequestType.READ if request.is_read else RequestType.WRITE
            )
            bus_t = self.channel.earliest_cas_for_bus(
                command, request.addr.rank, req_type, request.subrank
            )
            if bus_t > earliest:
                earliest, reason = bus_t, CCD_BUS
        if bus_floor > earliest:
            earliest, reason = bus_floor, CCD_BUS
        return (command, earliest, reason)

    def _entry_terms(
        self, request: Request, rank, bank
    ) -> Tuple[Command, int, str, int]:
        """The stateful half of a readiness entry: the next command
        ``request`` needs, the earliest issue time over the
        subarray/bank/rank constraints, the binding stall tag, and which
        bus term applies at lookup time.  Everything read here is covered
        by ``bank.version``, ``rank.version`` and the request's
        subarray's ``version`` (one request's readiness also depends on
        *other* subarrays -- precharge victims, designation -- which is
        why every bank mutation bumps ``bank.version``), so a cached
        entry stays exact until one of those moves.

        The subarray gates carry tRP/tRCD/tRAS recovery, the bank carries
        the shared row-logic (tRA) and column-path gates, and column
        commands go only to the designated subarray.  A conventional bank
        is the one-subarray case: its one open subarray is always the
        designated one and the victim search never fires."""
        if rank.ensure_mode(request.io_mode):
            earliest = max(rank.busy_until, rank.next_read, rank.next_write)
            return (Command.MRS, earliest, MODE_SWITCH, _BUS_MRS)
        needed = request.row_id()
        sub = request._sub
        if sub.open_row == needed:
            if bank.designated == sub.sub_id:
                # column command to the globally connected subarray
                cmd = Command.RD if request.is_read else Command.WR
                rank_gate = rank.earliest_cas(cmd)
                if rank_gate == rank.busy_until:
                    rank_tag = REFRESH
                elif rank_gate == rank.next_act_any:
                    rank_tag = MODE_SWITCH  # tMOD_IO stalls CAS and ACT
                else:
                    rank_tag = WRITE_DRAIN  # tWTR write-to-read turnaround
                earliest, reason = self._binding(
                    # the local gate is the last ACT + tRCD; the shared
                    # one is the column path's CAS spacing
                    (sub.next_cas, TRCD),
                    (bank.col_next_cas, CCD_BUS),
                    (rank_gate, rank_tag),
                )
                return (cmd, earliest, reason, _BUS_CAS)
            if self.salp == "masa":
                # right row open in an undesignated subarray: switch the
                # global sense-amp connection first
                earliest, reason = self._binding(
                    (bank.next_sa_sel, SUBARRAY),
                    (rank.busy_until, REFRESH),
                )
                return (Command.SA_SEL, earliest, reason, _BUS_NONE)
            # SALP-2 cannot re-connect an undesignated subarray (only an
            # ACT designates): close it and re-activate
            earliest, reason = self._binding(
                (sub.next_pre, TRAS),
                (rank.busy_until, REFRESH),
            )
            return (Command.PRE, earliest, reason, _BUS_NONE)
        if sub.open_row is None:
            victim = bank.pre_victim(sub.sub_id)
            if victim is not None:
                # the bank is at its open-subarray capacity: close the
                # oldest open subarray before activating this one
                vic = bank.subarrays[victim]
                earliest, reason = self._binding(
                    (vic.next_pre, TRAS),
                    (rank.busy_until, REFRESH),
                )
                return (Command.PRE, earliest, reason, _BUS_NONE)
            cmd = (
                Command.ACT
                if needed[0].value == "row"
                else Command.ACT_COL
            )
            act_gate = rank.earliest_act(0, request.addr.bank_group)
            if act_gate == rank.busy_until:
                act_tag = REFRESH
            elif act_gate == rank.next_act_any:
                act_tag = MODE_SWITCH
            else:
                act_tag = TFAW  # tFAW window or tRRD spacing
            earliest, reason = self._binding(
                # post-refresh the subarray ACT gate is the tRFC blackout,
                # post-precharge it is tRP
                (sub.next_act,
                 REFRESH if rank.busy_until >= sub.next_act else TRP),
                (bank.next_any_act, SUBARRAY),  # shared row-logic re-arm
                (act_gate, act_tag),
            )
            return (cmd, earliest, reason, _BUS_NONE)
        # row conflict within this subarray: precharge it first
        earliest, reason = self._binding(
            (sub.next_pre, TRAS),
            (rank.busy_until, REFRESH),
        )
        return (Command.PRE, earliest, reason, _BUS_NONE)

    def _pre_target(self, request: Request, bank):
        """The subarray a PRE chosen for ``request`` closes: the
        request's own subarray when it holds an open row (wrong row, or
        right row but undesignated under SALP-2), else the bank's
        capacity victim.  Deterministic re-derivation at issue time is
        safe: any intervening state change bumps ``bank.version`` and
        forces the scheduling entry to be rebuilt."""
        sub = request._sub
        if sub.open_row is not None:
            return sub
        victim = bank.pre_victim(sub.sub_id)
        if victim is not None:
            return bank.subarrays[victim]
        return bank.pre_candidate(self.kernel.now)

    # ------------------------------------------------------------- issuing

    def _emit(self, cycle: int, command: Command, request: Optional[Request],
              rank: int, bank: int, subarray: Optional[int] = None,
              implicit: bool = False) -> None:
        """Hand one issued command to every listener (the one path every
        command takes to its consumers)."""
        for listener in self.command_listeners:
            listener(cycle, command, request, rank=rank, bank=bank,
                     subarray=subarray, implicit=implicit)

    def _issue(
        self, now: int, request: Request, command: Command, queue: List[Request]
    ) -> None:
        rank = request._rank
        bank = request._bank
        pre_sub = None
        if command is Command.PRE:
            # resolved before the listeners: the checker needs the PRE's
            # subarray operand (a precharge names the subarray it closes)
            pre_sub = self._pre_target(request, bank)
        self.channel.occupy_command_bus(now)
        self._emit(now, command, request, request.addr.rank,
                   request.addr.bank,
                   None if pre_sub is None else pre_sub.sub_id)

        if command is Command.MRS:
            rank.issue_mode_switch(now, request.io_mode)
            self.stats.mode_switches += 1
            return
        if command is Command.SA_SEL:
            bank.issue_sa_sel(now, request._sub)
            self.stats.sa_sels += 1
            return
        if command is Command.PRE:
            bank.issue_pre(now, pre_sub)
            self.stats.precharges += 1
            self.stats.row_conflicts += 1
            bank.row_conflicts += 1
            return
        if command in (Command.ACT, Command.ACT_COL):
            bank.issue_act(now, request.row_id(), request._sub)
            rank.issue_act(now, request.addr.bank_group)
            if command is Command.ACT_COL:
                self.stats.col_acts += 1
            else:
                self.stats.acts += 1
            self.stats.row_misses += 1
            bank.row_misses += 1
            return

        # Column command: the request completes.
        req_type = RequestType.READ if request.is_read else RequestType.WRITE
        if command is Command.RD:
            bank.issue_read(now, request.internal_bursts, request._sub)
        else:
            bank.issue_write(now, request.internal_bursts, request._sub)
            rank.issue_write(now)
        data_end = self.channel.issue_cas(
            now, command, request.addr.rank, req_type, request.subrank
        )
        self._last_cas_group = (request.addr.rank, request.addr.bank_group)
        if self.config.page_policy == "closed":
            # auto-precharge (RDA/WRA): the row closes once tRTP/tWR allow
            sub = request._sub
            pre_at = sub.next_pre
            self._emit(pre_at, Command.PRE, request, request.addr.rank,
                       request.addr.bank, sub.sub_id, implicit=True)
            bank.issue_pre(pre_at, sub)
            self.stats.precharges += 1
        self._account_cas(request, command)
        self.stats.row_hits += 1
        bank.row_hits += 1
        queue.remove(request)
        request.issue_time = now
        # critical-word-first: the demanded word lands mid-burst, so the
        # waiting load restarts before the burst completes
        complete_at = data_end
        if request.early_restart and request.is_read and request.critical:
            complete_at = data_end - self.timing.tBL // 2
        request.finish_time = complete_at
        if request.is_read:
            self.stats.read_latency_total += complete_at - request.arrival
            self.stats.read_count_for_latency += 1
            if self.latency_hist is not None:
                self.latency_hist.observe(complete_at - request.arrival)
        if request.on_complete is not None:
            callback = request.on_complete
            self.kernel.schedule_at(
                complete_at, lambda r=request, t=complete_at: callback(r, t)
            )
        if self.slot_listener is not None:
            # a queue slot just freed: let the system wake whoever is
            # backpressured on it (gates futile writeback polls)
            self.slot_listener(request)

    def _account_cas(self, request: Request, command: Command) -> None:
        s = self.stats
        s.internal_bursts += request.internal_bursts
        if command is Command.RD:
            s.reads += 1
            if request.is_gather:
                s.gather_reads += 1
            if request.io_mode is IOMode.STRIDE:
                s.stride_mode_reads += 1
        else:
            s.writes += 1
            if request.is_gather:
                s.gather_writes += 1

    def _issue_refresh_step(self, now: int, rank_id: int) -> Optional[int]:
        """Progress the pending refresh of ``rank_id`` by one command."""
        rank = self.channel.ranks[rank_id]
        if rank.busy_until > now:
            return rank.busy_until
        if not rank.all_banks_precharged():
            # precharge the first open subarray that is allowed to close
            # (one command per cycle; a SALP bank may take several PREs)
            soonest = FOREVER
            for bank_id, bank in enumerate(rank.banks):
                sub = bank.pre_candidate(now)
                if sub is None:
                    continue
                ready = sub.next_pre
                if ready <= now:
                    self.channel.occupy_command_bus(now)
                    self._emit(now, Command.PRE, None, rank_id, bank_id,
                               sub.sub_id)
                    bank.issue_pre(now, sub)
                    self.stats.precharges += 1
                    return now + 1
                soonest = min(soonest, ready)
            return soonest
        self.channel.occupy_command_bus(now)
        self._emit(now, Command.REF, None, rank_id, -1)
        rank.issue_refresh(now)
        self.stats.refreshes += 1
        self._next_refresh[rank_id] += self.timing.tREFI
        return now + 1
