"""Scheduler lockdown: exactness against the reference, wakeup
efficiency, and the guard paths the equivalence argument leans on.

The fast scheduler's contract is that it never changes *behavior*, only
the cost of reaching scheduler decisions: against
``ControllerConfig(reference=True)`` (full-recompute scan, no writeback
futility gate) command streams, cycle counts and stall ledgers match
exactly.  The fuzzed batteries in ``test_vectorized.py`` replay
controller-level traces in both modes; this file locks down the rest --
full-system equivalence under backpressure, the stale-wakeup guard, the
writeback-poll futility gate, the per-scan shared readiness entries, and
the O(commands)-not-O(cycles) event count on idle-gap workloads.
"""

import dataclasses
import random

import pytest

from repro.core.registry import make_scheme
from repro.dram import (
    AddressMapper,
    Command,
    ControllerConfig,
    DDR4_2400,
    IOMode,
    Request,
    RequestType,
    RowKind,
)
from repro.dram.address import DecodedAddress
from repro.dram.controller import _BUS_CAS, MemoryController
from repro.imdb.queries import by_name
from repro.kernel import Kernel
from repro.obs import Observation
from repro.sim import run_query
from repro.sim.config import SystemConfig
from repro.workloads import make_tables

from .test_dram_controller import read


def _config(reference, **ctrl):
    return dataclasses.replace(
        SystemConfig(),
        controller=ControllerConfig(reference=reference, **ctrl),
    )


def _run(scheme, query_name, tables, reference=False, **ctrl):
    obs = Observation()
    result = run_query(
        scheme, by_name()[query_name], tables,
        config=_config(reference, **ctrl), observe=obs,
    )
    return result, obs


@pytest.fixture(scope="module")
def tables():
    return make_tables(256, 512)


# --------------------------------------------------- stale-wakeup guard

def test_stale_wakeup_guard_drops_superseded_event():
    """An earlier wake-up scheduled over a pending later one must not
    fork a second wake-up chain: the superseded event still fires, but
    the ``_wakeup_at`` guard drops it before it reaches the scheduler."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    scans = []
    real_try_issue = mc._try_issue
    mc._try_issue = lambda now: scans.append(now) or real_try_issue(now)

    mc._schedule_wakeup(10)
    mc._schedule_wakeup(4)  # supersedes; the event at 10 lingers
    assert mc._wakeup_at == 4
    assert kernel.pending() == 2  # superseded event NOT cancelled
    kernel.run()
    # both events fired, but only the armed one reached the scheduler
    assert kernel.events == 2
    assert scans == [4]


def test_stale_wakeup_rearm_acts_at_original_position():
    """Re-arming a time that still has a lingering superseded event must
    let that (oldest) event act -- the guard compares times, not tokens,
    so the wake-up keeps its original intra-cycle FIFO position."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    scans = []
    real_try_issue = mc._try_issue
    mc._try_issue = lambda now: scans.append(now) or real_try_issue(now)

    mc._schedule_wakeup(10)
    mc._schedule_wakeup(4)
    kernel.run(until=5)
    assert scans == [4]
    mc._schedule_wakeup(10)  # re-arm: the lingering event stands in
    assert kernel.pending() == 2  # old stale entry + the fresh one
    kernel.run()
    assert scans == [4, 10]  # acted exactly once at the re-armed time


# --------------------------------------------- full-system equivalence

_BACKPRESSURE = dict(
    read_queue_capacity=4,
    write_queue_capacity=4,
    write_high_watermark=3,
    write_low_watermark=1,
)

_CELLS = (("SAM-sub", "Qs5"), ("baseline", "Q7"), ("SAM-en", "Q3"))


@pytest.mark.parametrize("scheme,query", _CELLS)
def test_wheel_matches_polling_full_system(scheme, query, tables):
    """Full-system exactness on tiny controller queues, so core
    backpressure retries and blocked writebacks are actually exercised:
    cycles, command counts and the controller stall ledger must be
    identical to the reference."""
    fast, fobs = _run(scheme, query, tables, **_BACKPRESSURE)
    ref, robs = _run(scheme, query, tables, reference=True,
                     **_BACKPRESSURE)
    assert fast.cycles == ref.cycles
    assert fast.memory_stats == ref.memory_stats
    assert fobs.stalls.ledger.entries == robs.stalls.ledger.entries
    assert fast.stalls == ref.stalls
    # the tiny queues must actually bite, or this test proves nothing
    assert fast.metrics["core.retries"] > 0
    # identical event streams is the mechanism behind the exactness
    assert fast.metrics["kernel.events"] == ref.metrics["kernel.events"]


def test_wheel_matches_polling_default_config(tables):
    """Same exactness at the default (paper) configuration."""
    fast, fobs = _run("SAM-en", "Qs1", tables)
    ref, robs = _run("SAM-en", "Qs1", tables, reference=True)
    assert fast.cycles == ref.cycles
    assert fast.memory_stats == ref.memory_stats
    assert fobs.stalls.ledger.entries == robs.stalls.ledger.entries


# ------------------------------------------------- writeback futility

def test_no_writeback_polls_when_queue_never_blocks(tables):
    """Writeback polling is demand-driven in both modes: a run whose
    writebacks are always admitted immediately schedules zero polls."""
    fast, _ = _run("SAM-en", "Q3", tables)
    assert fast.metrics["sys.wb_polls"] == 0


def test_blocked_writebacks_drain_identically(tables):
    """Force writeback blocking with a tiny write queue (the update
    queries dirty cache lines, so the end-of-run flush has real
    writebacks to push): blocked drains must resolve at identical cycles
    in both modes, with identical poll event counts."""
    ctrl = dict(
        write_queue_capacity=2, write_high_watermark=2,
        write_low_watermark=1,
    )
    for query in ("Q11", "Q12"):
        fast, fobs = _run("baseline", query, tables, **ctrl)
        ref, robs = _run("baseline", query, tables, reference=True,
                         **ctrl)
        assert fast.cycles == ref.cycles
        assert fast.memory_stats == ref.memory_stats
        assert fobs.stalls.ledger.entries == robs.stalls.ledger.entries
        assert fast.metrics["sys.writebacks"] > 0
        assert fast.metrics["sys.wb_polls"] > 0
        assert (
            fast.metrics["sys.wb_polls"] == ref.metrics["sys.wb_polls"]
        )
        assert ref.metrics["sys.wb_polls_futile"] == 0


def test_writeback_futility_gate_skips_relowering():
    """While no controller issue frees a queue slot, every poll is
    provably futile: the gate must re-arm without re-lowering the
    blocked line, and resume draining the moment a slot-freed
    notification arrives."""
    from repro.sim.system import MemorySystem

    kernel = Kernel()
    system = MemorySystem(kernel, make_scheme("baseline"))
    lowered = []
    real_lower = system.scheme.lower_write
    system.scheme.lower_write = lambda line: (
        lowered.append(line) or real_lower(line)
    )
    # block admission outright: the poll chain can never succeed
    system._can_accept_all = lambda requests: False
    system._pending_writebacks.append(0)
    system._drain_writebacks()
    assert system._writeback_poll_scheduled
    assert lowered == [0]  # the initial blocked attempt lowered once
    kernel.run(until=100)
    assert system.wb_polls == system.wb_polls_futile > 3
    assert lowered == [0]  # every futile poll skipped the re-lower
    # a slot-freed notification re-arms the next poll as a real attempt
    del system._can_accept_all  # restore the class method
    system._on_slot_freed(None)
    kernel.run(until=200)
    assert not system._pending_writebacks
    assert lowered == [0, 0]  # exactly one real re-lower drained it
    assert system.wb_polls > system.wb_polls_futile


# -------------------------------------------- shared readiness entries

def _bus_signature(request, terms):
    """The lookup-time bus half of a readiness entry, spelled out."""
    addr = request.addr
    group = (addr.rank, addr.bank_group)
    if terms[3] != _BUS_CAS:
        return (None, None, group)
    is_rd = terms[0] is Command.RD
    return (
        (0 if is_rd else 1, addr.rank, request.subrank),
        RequestType.READ if is_rd else RequestType.WRITE,
        group,
    )


@pytest.mark.parametrize("scheme", ("baseline", "SAM-en", "masa"))
def test_shared_entries_equal_fresh_terms(scheme):
    """Keep both queues full of requests that mostly share a bank and
    row, with mixed I/O modes and row kinds.  After every scan, each
    request whose entry is current must hold exactly what a fresh
    ``_entry_terms`` plus its own bus signature gives -- and the scans
    must really share entries between requests."""
    scheme_obj = make_scheme(scheme)
    kernel = Kernel()
    mc = MemoryController(
        kernel, scheme_obj.timing, scheme_obj.geometry,
        ControllerConfig(refresh_enabled=False), salp=scheme_obj.salp_mode,
    )
    rng = random.Random(scheme)
    pending = [
        Request(
            addr=DecodedAddress(
                channel=0, rank=rng.choice((0, 0, 1)),
                bank=rng.choice((0, 0, 0, 5)),
                row=rng.choice((7, 7, 7, 8, 7 + 512)),
                column=rng.randrange(128), offset=0,
            ),
            type=rng.choice((RequestType.READ,) * 3 + (RequestType.WRITE,)),
            io_mode=rng.choice((IOMode.X4,) * 5 + (IOMode.STRIDE,)),
            row_kind=rng.choice((RowKind.ROW,) * 5 + (RowKind.COLUMN,)),
        )
        for _ in range(400)
    ]
    done = []

    def refill(*_):
        while pending and mc.can_accept(pending[-1]):
            request = pending.pop()
            request.on_complete = lambda r, t: (done.append(r), refill())
            mc.submit(request)

    scans = checked = derived = distinct = 0
    real_choose = mc._frfcfs_choose

    def checking_choose(now, queue):
        nonlocal scans, checked, derived, distinct
        before = [request._sched_cache for request in queue]
        choice = real_choose(now, queue)
        scans += 1
        rebuilt = [
            request._sched_cache for request, old in zip(queue, before)
            if request._sched_cache is not old
        ]
        derived += len(rebuilt)
        distinct += len({id(entry) for entry in rebuilt})
        for request in queue:
            entry = request._sched_cache
            stamps = (request._bank.version, request._rank.version,
                      request._sub.version)
            if entry is None or entry[:3] != stamps:
                continue  # not reached by a scan that returned early
            terms = mc._entry_terms(request, request._rank, request._bank)
            assert entry[3:7] == terms
            assert entry[7:] == _bus_signature(request, terms)
            checked += 1
        return choice

    mc._frfcfs_choose = checking_choose
    refill()
    kernel.run()
    assert len(done) == 400 and mc.idle()
    assert scans > 100 and checked > 10 * scans
    assert distinct < derived // 2  # most re-derivations were shared


# ----------------------------------------------- wakeup efficiency

def test_idle_gap_workload_events_scale_with_commands():
    """A trace with long idle gaps between requests must execute
    O(commands) kernel events, not O(cycles): the controller sleeps to
    exact deadlines and schedules nothing at all while idle."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    mapper = AddressMapper(mc.geometry)
    done = []
    gap = 5_000
    n = 20
    for i in range(n):
        kernel.schedule_at(
            i * gap,
            lambda i=i: mc.submit(read(mapper, i * 64, done)),
        )
    kernel.run()
    assert len(done) == n
    assert kernel.now >= (n - 1) * gap
    # ~6 events per command (submit, wake-ups along the ACT/RD chain,
    # completion); the budget is generous but a per-cycle poller would
    # blow through it by three orders of magnitude
    assert kernel.events < 12 * n


def test_event_efficiency_gauges_published(tables):
    """The wakeup-efficiency gauges land in the metrics registry (and
    therefore in run manifests and ``repro bench`` payloads)."""
    result, _ = _run("SAM-en", "Qs1", tables)
    m = result.metrics
    assert m["kernel.events"] == m["sim.events"] > 0
    assert m["sim.events_per_cycle"] == pytest.approx(
        m["sim.events"] / result.cycles
    )
    # dense workloads sit around 1-2 events/cycle; a per-cycle poller
    # across every component would be an order of magnitude higher
    assert 0 < m["sim.events_per_cycle"] < 5
    assert m["kernel.cancelled"] == 0  # nothing cancels on this path
