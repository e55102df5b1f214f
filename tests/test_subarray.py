"""Subarray-generic bank model: unit, protocol-rule and property tests.

Covers the three layers the SALP refactor touched:

* :class:`~repro.dram.bank.SubarrayState` / :class:`~repro.dram.bank.BankState`
  -- per-subarray gates, shared-structure gates, designation, capacity,
  refresh blackout, and the conventional ``salp="none"`` bank as the
  one-subarray instance;
* the protocol checker's subarray rules (tRA, tSA_SEL, capacity,
  designation, SA_SEL legality) on hand-built command streams;
* the readiness-index invalidation contract: a hypothesis property that
  no mutation of scheduling-visible state ever leaves the
  ``(bank.version, sub.version)`` cache key unchanged.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.check.protocol import TimingProtocolChecker
from repro.dram.bank import FOREVER, BankState
from repro.dram.commands import Command, RowKind
from repro.dram.geometry import Geometry
from repro.dram.timing import DDR4_2400

T = DDR4_2400
#: rows 0 / 512 / 1024 live in subarrays 0 / 1 / 2 at the test geometry
SUBS = 4
ROWS_PER_SUB = 512
ROW0 = (RowKind.ROW, 0)
ROW1 = (RowKind.ROW, ROWS_PER_SUB)
ROW2 = (RowKind.ROW, 2 * ROWS_PER_SUB)


def make_bank(salp: str) -> BankState:
    return BankState(T, salp=salp, subarrays_per_bank=SUBS,
                     rows_per_subarray=ROWS_PER_SUB)


# ------------------------------------------------------------ construction

def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="salp"):
        BankState(T, salp="salp3")


def test_none_mode_is_single_subarray():
    bank = BankState(T)
    assert bank.n_subarrays == 1
    assert bank.open_capacity == 1
    assert bank.sub_id_for(123456) == 0


def test_subarrays_created_lazily():
    bank = make_bank("masa")
    assert set(bank.subarrays) == {0}
    bank.issue_act(10, ROW2)
    assert set(bank.subarrays) == {0, 2}


def test_synthetic_rows_fold_into_range():
    bank = make_bank("masa")
    huge = SUBS * ROWS_PER_SUB * 7 + 3 * ROWS_PER_SUB
    assert bank.sub_id_for(huge) == 3


# ------------------------------------------------- one-subarray (none) mode

def test_none_mode_one_subarray_field_api():
    bank = BankState(T)
    sub = bank.subarrays[0]
    bank.issue_act(100, ROW0)
    assert bank.open_row == ROW0
    assert bank.is_open(ROW0)
    assert bank.next_cas == sub.next_cas == 100 + T.tRCD
    assert bank.next_pre == 100 + T.tRAS
    assert bank.next_act == FOREVER
    assert bank.last_act == 100
    bank.issue_pre(400)
    assert bank.open_row is None
    assert bank.next_act == 400 + T.tRP
    assert bank.all_closed


def test_subarray_state_gates_match_one_subarray_bank():
    """A one-subarray bank's gates follow the conventional bank rules."""
    bank = BankState(T)
    bank.issue_act(50, ROW0)
    assert bank.earliest(Command.RD) == 50 + T.tRCD
    assert bank.earliest(Command.PRE) == 50 + T.tRAS
    bank.issue_read(60, extra_internal=2)
    tail = 2 * T.tCCD_L
    assert bank.next_cas == 60 + T.tCCD_L + tail
    assert bank.next_pre == max(50 + T.tRAS, 60 + T.tRTP + tail)
    bank.issue_write(80)
    assert bank.next_pre >= 80 + T.CWL + T.tBL + T.tWR


# ------------------------------------------------------------- SALP modes

def test_capacity_per_mode():
    assert make_bank("salp1").open_capacity == 1
    assert make_bank("salp2").open_capacity == 2
    assert make_bank("masa").open_capacity == SUBS


def test_salp1_overlapped_precharge():
    """SALP-1's point: after PRE, an ACT to a *different* subarray is
    gated by the shared-logic tRA re-arm, not the local tRP."""
    bank = make_bank("salp1")
    bank.issue_act(0, ROW0)
    bank.issue_pre(100, bank.sub(0))
    # the precharged subarray pays its local tRP ...
    assert bank.sub(0).next_act == 100 + T.tRP
    # ... but subarray 1 only waits for the row logic (armed at ACT time)
    assert bank.sub(1).next_act == 0
    assert bank.next_any_act == T.tRA
    assert T.tRA < T.tRP  # the overlap is real


def test_victim_is_oldest_open_subarray():
    bank = make_bank("salp2")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    assert bank.pre_victim(2) == 0          # FIFO: oldest first
    bank.issue_pre(50, bank.sub(0))
    assert bank.pre_victim(2) is None       # under capacity again
    assert list(bank.open_subs) == [1]


def test_newest_act_owns_designation():
    bank = make_bank("salp2")
    bank.issue_act(0, ROW0)
    assert bank.designated == 0
    bank.issue_act(10, ROW1)
    assert bank.designated == 1
    assert bank.open_row == ROW1            # designated sub's row
    bank.issue_pre(50, bank.sub(1))
    assert bank.designated is None          # closing the owner clears it


def test_sa_sel_redesignates_and_paces_column_path():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    bank.issue_sa_sel(30, bank.sub(0))
    assert bank.designated == 0
    assert bank.next_sa_sel == 30 + T.tSA_SEL
    assert bank.col_next_cas >= 30 + T.tSA_SEL
    assert bank.sa_sels == 1


def test_cas_splits_shared_and_local_gates():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    bank.issue_read(40, sub=bank.sub(1))
    # CAS spacing binds the shared column path ...
    assert bank.col_next_cas == 40 + T.tCCD_L
    # ... read-to-precharge recovery binds only the accessed subarray
    assert bank.sub(1).next_pre >= 40 + T.tRTP
    assert bank.sub(0).next_pre == 0 + T.tRAS


def test_refresh_blackout_covers_lazy_subarrays():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.refresh(100, T.tRFC)
    assert bank.all_closed
    assert bank.sub(0).next_act >= 100 + T.tRFC
    # a subarray created only after the refresh still sees the blackout
    assert bank.sub(3).next_act == 100 + T.tRFC
    assert bank.next_any_act >= 100 + T.tRFC


def test_snapshot_carries_salp_state():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    snap = bank.snapshot()
    assert snap["salp"] == "masa"
    assert snap["designated"] == 1
    assert snap["open_subarrays"] == {0: ROW0, 1: ROW1}
    assert "salp" not in BankState(T).snapshot()


# ----------------------------------------------------- protocol-rule tests

def checker(salp: str) -> TimingProtocolChecker:
    return TimingProtocolChecker(
        T, Geometry(), strict=False, salp=salp
    )


def rules_of(chk: TimingProtocolChecker) -> set:
    return {v.rule for v in chk.violations}


def test_checker_flags_capacity_overflow():
    chk = checker("salp1")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(1000, Command.ACT, rank=0, bank=0, row=ROW1)
    assert "salp-capacity" in rules_of(chk)


def test_checker_flags_tra():
    chk = checker("masa")
    chk.on_command(100, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(101, Command.ACT, rank=0, bank=0, row=ROW1)
    assert "tRA" in rules_of(chk)


def test_checker_flags_undesignated_cas():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.ACT, rank=0, bank=0, row=ROW1)
    chk.on_command(200, Command.RD, rank=0, bank=0, row=ROW0)
    assert "cas-undesignated" in rules_of(chk)


def test_checker_flags_tsa_sel_pacing():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.ACT, rank=0, bank=0, row=ROW1)
    chk.on_command(200, Command.SA_SEL, rank=0, bank=0, row=ROW0)
    chk.on_command(201, Command.RD, rank=0, bank=0, row=ROW0)
    assert "tSA_SEL" in rules_of(chk)


def test_checker_rejects_sa_sel_outside_masa():
    chk = checker("salp1")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.SA_SEL, rank=0, bank=0, row=ROW0)
    assert "sa-sel-mode" in rules_of(chk)


def test_checker_rejects_sa_sel_on_closed_subarray():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.SA_SEL, rank=0, bank=0, row=ROW1)
    assert "sa-sel-on-closed" in rules_of(chk)


def test_checker_rejects_sa_sel_without_row():
    chk = checker("masa")
    chk.on_command(0, Command.SA_SEL, rank=0, bank=0)
    assert "sa-sel-without-row" in rules_of(chk)


def test_checker_accepts_clean_masa_stream():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(50, Command.ACT, rank=0, bank=0, row=ROW1)
    chk.on_command(100, Command.SA_SEL, rank=0, bank=0, row=ROW0)
    chk.on_command(110, Command.RD, rank=0, bank=0, row=ROW0)
    chk.on_command(200, Command.PRE, rank=0, bank=0, subarray=0)
    chk.on_command(210, Command.PRE, rank=0, bank=0, subarray=1)
    assert chk.violations == []


# --------------------------------------- version-invalidation property

def _visible_state(bank: BankState) -> tuple:
    """Everything the scheduler may read when pricing a request."""
    return (
        tuple(sorted(
            (i, s.open_row, s.next_act, s.next_cas,
             s.next_pre, s.last_act)
            for i, s in bank.subarrays.items()
        )),
        bank.designated,
        bank.next_any_act,
        bank.next_sa_sel,
        bank.col_next_cas,
        tuple(bank.open_subs.items()),
        bank.act_floor,
    )


def _version_keys(bank: BankState) -> dict:
    """The readiness-cache key of every materialized subarray."""
    return {
        i: (bank.version, s.version) for i, s in bank.subarrays.items()
    }


_OP = st.tuples(
    st.sampled_from(("act", "read", "write", "pre", "sa_sel", "refresh")),
    st.integers(min_value=0, max_value=SUBS - 1),
    st.integers(min_value=1, max_value=50),
)


@pytest.mark.parametrize("salp", ("none", "salp1", "salp2", "masa"))
@given(ops=st.lists(_OP, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_mutations_never_leave_stale_readiness_keys(salp, ops):
    """The invalidation contract of the incremental FR-FCFS index: if a
    command or refresh changes any scheduling-visible bank/subarray
    state, the ``(bank.version, sub.version)`` key of every affected
    subarray must change too -- otherwise the controller would keep
    serving a cached readiness entry computed against the old state."""
    bank = BankState(T, salp=salp, subarrays_per_bank=SUBS,
                     rows_per_subarray=ROWS_PER_SUB)
    now = 0
    for name, sub_id, step in ops:
        now += step
        if salp == "none":
            sub_id = 0
        sub = bank.sub(sub_id)
        row = (RowKind.ROW, sub_id * ROWS_PER_SUB)
        before_state = _visible_state(bank)
        before_keys = _version_keys(bank)
        if name == "act":
            bank.issue_act(now, row, sub)
        elif name == "read":
            bank.issue_read(now, sub=sub)
        elif name == "write":
            bank.issue_write(now, sub=sub)
        elif name == "pre":
            bank.issue_pre(now, sub)
        elif name == "sa_sel":
            if salp == "none":
                continue
            bank.issue_sa_sel(now, sub)
        elif name == "refresh":
            bank.refresh(now, T.tRFC)
        after_state = _visible_state(bank)
        if after_state == before_state:
            continue
        after_keys = _version_keys(bank)
        for i, key in before_keys.items():
            assert after_keys[i] != key, (
                f"{name} on subarray {sub_id} at {now} changed visible "
                f"state but left subarray {i}'s readiness key at {key}"
            )
