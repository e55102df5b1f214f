"""Per-bank timing state machine, generic over subarrays.

A bank is N subarrays sharing global structures: the row-address logic
(one ACT at a time, paced by ``tRA``), the global bitlines / column path
(CAS spacing), and the notion of a *designated* subarray whose local row
buffer currently drives the shared global sense amplifiers.
:class:`SubarrayState` tracks one subarray's open row and local gates;
:class:`BankState` owns the subarrays plus the shared gates and exposes
the scheduling API the controller uses.

Four operating modes (``salp``) share one code path and differ only in
the subarray count and the open-subarray capacity:

* ``"none"`` -- a conventional bank: the one-subarray, one-open-row
  instance (Kim et al., ISCA'12, define a conventional bank exactly so).
  The shared ``tRA`` gate never binds here: two ACTs to the same
  subarray are at least ``tRAS + tRP`` (and ``tRRD_L``) apart, which
  exceeds ``tRA`` in every preset.
* ``"salp1"`` -- SALP-1 (Kim et al., ISCA'12): at most one subarray open,
  but a precharge only pays its ``tRP`` *locally*; an ACT to a different
  subarray of the same bank waits only the short shared-logic re-arm
  delay ``tRA``, overlapping the precharge with the next activation.
* ``"salp2"`` -- SALP-2: up to two subarrays activated concurrently; the
  most recently activated one is *designated* (owns the global sense
  amps) and is the only one column commands may target.
* ``"masa"`` -- MASA: any number of subarrays activated; an ``SA_SEL``
  command re-designates which one drives the global bitlines before a
  column command to a non-designated subarray.

The constraints are updated as commands issue; the controller asks the
``earliest``-style accessors before issuing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .commands import Command, RowKind
from .timing import TimingParams

FOREVER = 1 << 60

#: valid ``salp`` operating modes, in increasing capability order
SALP_MODES = ("none", "salp1", "salp2", "masa")


@dataclass
class SubarrayState:
    """Timing state of one subarray: its own open row and local gates.

    ``next_cas`` carries only the local ACT-to-column delay (tRCD), which
    reads and writes share; CAS spacing binds the column path the
    subarrays share, so it lives on the :class:`BankState`.
    """

    timing: TimingParams
    sub_id: int = 0
    open_row: Optional[Tuple[RowKind, int]] = None
    next_act: int = 0
    next_cas: int = 0
    next_pre: int = 0
    last_act: int = -FOREVER
    #: invalidation epoch for the controller's readiness index: bumped on
    #: every mutation of the scheduling-visible state above.  Any new
    #: timing rule that writes those fields outside the issue_* methods
    #: must bump this too, or cached readiness entries go stale (the
    #: scheduler-equivalence test bites).
    version: int = 0

    def issue_act(self, now: int, row: Tuple[RowKind, int]) -> None:
        t = self.timing
        self.version += 1
        self.open_row = row
        self.last_act = now
        self.next_cas = max(self.next_cas, now + t.tRCD)
        self.next_pre = max(self.next_pre, now + t.tRAS)
        self.next_act = FOREVER  # must precharge before the next ACT

    def issue_pre(self, now: int) -> None:
        t = self.timing
        self.version += 1
        self.open_row = None
        self.next_act = max(0, now + t.tRP)


class BankState:
    """Timing state of one bank: N subarrays plus shared-structure gates.

    A conventional bank (``salp="none"``) is the one-subarray instance
    and runs the same code.  The bank-level view (``open_row``,
    ``next_*``, ``last_act``, ``earliest``, ``is_open``) combines the
    subarrays' local gates with the shared ones.  Subarray states are
    created lazily (a bank has 256 of them; a run touches a handful).

    Invalidation contract: *every* mutation of scheduling-visible state
    -- local subarray gates, the shared act/column gates, designation,
    the open-subarray set -- bumps :attr:`version` (and the affected
    subarray's own ``version``).  One request's readiness depends on
    *other* subarrays' state (precharge victims, designation), so the
    bank epoch is the conservative invalidator; the per-subarray epoch
    additionally keys the cache entry so a stale subarray ref can never
    alias a fresh bank epoch.
    """

    __slots__ = (
        "timing", "salp", "n_subarrays", "rows_per_subarray",
        "open_capacity", "subarrays", "open_subs", "designated",
        "next_any_act", "next_sa_sel", "col_next_cas",
        "act_floor", "version",
        "activations", "row_hits", "row_misses", "row_conflicts",
        "sa_sels", "first_act_cycle", "last_act_cycle",
    )

    def __init__(
        self,
        timing: TimingParams,
        salp: str = "none",
        subarrays_per_bank: int = 1,
        rows_per_subarray: int = 0,
    ) -> None:
        if salp not in SALP_MODES:
            raise ValueError(
                f"unknown salp mode {salp!r}; expected one of {SALP_MODES}"
            )
        self.timing = timing
        self.salp = salp
        self.n_subarrays = 1 if salp == "none" else max(1, subarrays_per_bank)
        #: row index -> subarray fold; every row lands in subarray 0 of a
        #: one-subarray bank
        self.rows_per_subarray = max(1, rows_per_subarray)
        #: how many subarrays may be activated concurrently
        self.open_capacity = (
            2 if salp == "salp2"
            else self.n_subarrays if salp == "masa"
            else 1
        )
        #: sub_id -> SubarrayState, created on first touch
        self.subarrays: Dict[int, SubarrayState] = {
            0: SubarrayState(timing)
        }
        #: sub_id -> ACT cycle of the currently open subarrays, in
        #: activation order (dict preserves insertion order -> the first
        #: key is the oldest open subarray, the precharge victim)
        self.open_subs: Dict[int, int] = {}
        #: subarray owning the global sense amps; the newest ACT takes it
        #: (so a bank with one open subarray always designates it)
        self.designated: Optional[int] = None
        #: shared row-logic gate: earliest next ACT to *any* subarray
        #: (tRA pacing)
        self.next_any_act = 0
        #: MASA designation-switch pacing
        self.next_sa_sel = 0
        #: shared column-path (global bitline / IO) CAS-spacing gate,
        #: the same for reads and writes
        self.col_next_cas = 0
        #: refresh-blackout floor applied to lazily-created subarrays
        self.act_floor = 0
        self.version = 0
        # Statistics (bank-level, mode-independent)
        self.activations = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.sa_sels = 0
        # Activity window (first/last activate cycle) for span profiling;
        # -1 means the bank was never used.
        self.first_act_cycle = -1
        self.last_act_cycle = -1

    # ------------------------------------------------------- subarray access

    def sub_id_for(self, row_index: int) -> int:
        """Subarray holding ``row_index``.

        Synthetic column-row identities (SAM-sub) exceed the physical row
        range, so the index is folded modulo the subarray count -- the
        same deterministic mapping the protocol checker applies.
        """
        return (row_index // self.rows_per_subarray) % self.n_subarrays

    def sub(self, sub_id: int) -> SubarrayState:
        """The subarray state for ``sub_id``, created on first touch."""
        state = self.subarrays.get(sub_id)
        if state is None:
            state = SubarrayState(self.timing, sub_id=sub_id,
                                  next_act=self.act_floor)
            self.subarrays[sub_id] = state
        return state

    def sub_for_row(self, row_index: int) -> SubarrayState:
        return self.sub(self.sub_id_for(row_index))

    @property
    def all_closed(self) -> bool:
        return not self.open_subs

    def pre_victim(self, sub_id: int) -> Optional[int]:
        """The open subarray an ACT for (closed) ``sub_id`` must close
        first, or None when the ACT may go ahead.  The victim is the
        oldest-activated open subarray (FIFO)."""
        if len(self.open_subs) < self.open_capacity:
            return None
        return next(iter(self.open_subs))

    def pre_candidate(self, now: int) -> Optional[SubarrayState]:
        """The open subarray closest to being precharge-ready (refresh
        path); None when the bank is fully precharged."""
        best: Optional[SubarrayState] = None
        for sub_id in self.open_subs:
            sub = self.subarrays[sub_id]
            if best is None or sub.next_pre < best.next_pre:
                best = sub
        return best

    # ------------------------------------------------------ bank-level view

    def _designated_sub(self) -> Optional[SubarrayState]:
        if self.designated is None:
            return None
        return self.subarrays[self.designated]

    @property
    def open_row(self) -> Optional[Tuple[RowKind, int]]:
        """The designated subarray's open row.  Diagnostics / shadow-sync
        accessor; the scheduler reads per-subarray state directly."""
        sub = self._designated_sub()
        return None if sub is None else sub.open_row

    @property
    def next_act(self) -> int:
        """Earliest ACT to any subarray: the soonest local gate (lazy
        subarrays sit at the refresh floor) under the shared tRA gate."""
        local = min(sub.next_act for sub in self.subarrays.values())
        if len(self.subarrays) < self.n_subarrays:
            local = min(local, self.act_floor)
        return max(local, self.next_any_act)

    @property
    def next_cas(self) -> int:
        """Earliest RD or WR to the designated subarray."""
        sub = self._designated_sub()
        return max(0 if sub is None else sub.next_cas, self.col_next_cas)

    @property
    def next_pre(self) -> int:
        sub = self.pre_candidate(0)
        return 0 if sub is None else sub.next_pre

    @property
    def last_act(self) -> int:
        return max((self.subarrays[i].last_act for i in self.open_subs),
                   default=-FOREVER)

    def is_open(self, row: Tuple[RowKind, int]) -> bool:
        return self.open_row == row

    def earliest(self, cmd: Command) -> int:
        """Earliest cycle this bank allows ``cmd`` to issue (bank-level
        view; the scheduler combines the per-subarray and shared gates
        itself)."""
        if cmd in (Command.ACT, Command.ACT_COL):
            return self.next_act
        if cmd in (Command.RD, Command.WR):
            return self.next_cas
        if cmd is Command.PRE:
            return self.next_pre
        if cmd is Command.SA_SEL:
            return self.next_sa_sel
        raise ValueError(f"bank does not gate {cmd}")

    # -------------------------------------------------------------- issuing

    def issue_act(self, now: int, row: Tuple[RowKind, int],
                  sub: Optional[SubarrayState] = None) -> None:
        if sub is None:
            sub = self.sub_for_row(row[1])
        self.version += 1
        sub.issue_act(now, row)
        self.activations += 1
        if self.first_act_cycle < 0:
            self.first_act_cycle = now
        self.last_act_cycle = now
        self.open_subs[sub.sub_id] = now
        self.designated = sub.sub_id  # newest ACT owns the global SAs
        # Shared row-logic re-arm.  In a one-subarray bank this never
        # binds: the next ACT to the bank waits for a PRE (>= tRAS after
        # this ACT) plus tRP, and for tRRD_L, and tRAS + tRP and tRRD_L
        # both exceed tRA in every preset (DDR4 39+17 and 6, RRAM 36+1
        # and 6, against tRA 4).  Only a corrupted timing table (the
        # fuzzer's --inject) can make it bind there.
        self.next_any_act = max(self.next_any_act, now + self.timing.tRA)

    def _issue_cas(self, now: int, extra_internal: int,
                   sub: Optional[SubarrayState], recovery: int) -> None:
        """Account a column command: CAS spacing binds the shared column
        path, ``recovery`` (read-to-precharge or write recovery) binds
        only the accessed subarray.  ``extra_internal`` extends the
        column-path occupancy for multi-internal-burst gathers (RC-NVM-bit
        etc.)."""
        t = self.timing
        tail = extra_internal * t.tCCD_L
        if sub is None:
            sub = self.subarrays[self.designated]
        self.version += 1
        sub.version += 1
        self.col_next_cas = max(self.col_next_cas, now + t.tCCD_L + tail)
        sub.next_pre = max(sub.next_pre, now + recovery + tail)

    def issue_read(self, now: int, extra_internal: int = 0,
                   sub: Optional[SubarrayState] = None) -> None:
        self._issue_cas(now, extra_internal, sub, self.timing.tRTP)

    def issue_write(self, now: int, extra_internal: int = 0,
                    sub: Optional[SubarrayState] = None) -> None:
        t = self.timing
        # write recovery: data lands at now+CWL..now+CWL+tBL, then tWR
        self._issue_cas(now, extra_internal, sub, t.CWL + t.tBL + t.tWR)

    def issue_pre(self, now: int,
                  sub: Optional[SubarrayState] = None) -> None:
        self.version += 1
        if sub is None:
            sub = self.pre_candidate(now)
            if sub is None:
                return
        sub.issue_pre(now)
        self.open_subs.pop(sub.sub_id, None)
        if self.designated == sub.sub_id:
            self.designated = None

    def issue_sa_sel(self, now: int, sub: SubarrayState) -> None:
        """MASA: re-designate ``sub`` as the globally connected subarray.
        The column path pays ``tSA_SEL`` before the next CAS."""
        t = self.timing
        self.version += 1
        sub.version += 1
        self.sa_sels += 1
        self.designated = sub.sub_id
        self.next_sa_sel = max(self.next_sa_sel, now + t.tSA_SEL)
        self.col_next_cas = max(self.col_next_cas, now + t.tSA_SEL)

    def force_close(self, now: int) -> None:
        """Close every open subarray as part of a refresh."""
        for sub_id in list(self.open_subs):
            self.issue_pre(now, self.subarrays[sub_id])

    def refresh(self, now: int, t_rfc: int) -> None:
        """Refresh blackout: close all subarrays, block ACTs for tRFC;
        bumps every readiness epoch involved."""
        self.force_close(now)
        self.version += 1
        until = now + t_rfc
        self.act_floor = max(self.act_floor, until)
        for sub in self.subarrays.values():
            sub.version += 1
            sub.next_act = max(sub.next_act, until)
        self.next_any_act = max(self.next_any_act, until)

    def snapshot(self) -> dict:
        """Timing-state snapshot for protocol-checker cross-validation."""
        state = {
            "open_row": self.open_row,
            "next_act": self.next_act,
            "next_cas": self.next_cas,
            "next_pre": self.next_pre,
        }
        if self.salp != "none":
            state["salp"] = self.salp
            state["designated"] = self.designated
            state["open_subarrays"] = {
                sub_id: self.subarrays[sub_id].open_row
                for sub_id in self.open_subs
            }
        return state
