"""Tests for command tracing and the sub-ranked (AGMS/DGMS) scheme."""

import pytest

from repro.core import make_scheme
from repro.core.subrank import SUBRANKS, SubRankScheme
from repro.cpu.core import Core
from repro.cpu.ops import Load
from repro.dram import (
    AddressMapper,
    DDR4_2400,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.commands import Command
from repro.kernel import Kernel
from repro.sim import MemorySystem, SystemConfig
from repro.sim.trace import CommandTracer


class TestTracer:
    def run_traced(self, addrs):
        kernel = Kernel()
        mc = MemoryController(kernel, DDR4_2400)
        tracer = CommandTracer(mc)
        am = AddressMapper(mc.geometry)
        for a in addrs:
            mc.submit(Request(addr=am.decode(a), type=RequestType.READ))
        kernel.run()
        return kernel, mc, tracer

    def test_records_commands(self):
        kernel, mc, tracer = self.run_traced([0, 64, 128])
        assert tracer.command_counts["ACT"] == 1
        assert tracer.command_counts["RD"] == 3
        assert len(tracer.events) == 4

    def test_bus_utilization(self):
        kernel, mc, tracer = self.run_traced(
            [b * 8192 for b in range(16)]
        )
        util = tracer.bus_utilization(kernel.now)
        assert 0.3 < util <= 1.0

    def test_hottest_banks(self):
        kernel, mc, tracer = self.run_traced([0, 64, 8192])
        hot = dict(tracer.hottest_banks())
        assert hot[(0, 0)] >= 2

    def test_cas_gap_histogram(self):
        kernel, mc, tracer = self.run_traced([i * 64 for i in range(8)])
        gaps = tracer.cas_gap_histogram()
        # same-bank stream: consecutive CAS at tCCD_L
        assert max(gaps, key=gaps.get) == DDR4_2400.tCCD_L

    def test_report(self):
        kernel, mc, tracer = self.run_traced([0, 64])
        text = tracer.report(kernel.now)
        assert "utilization" in text and "RD=2" in text

    def test_detach(self):
        kernel = Kernel()
        mc = MemoryController(kernel, DDR4_2400)
        tracer = CommandTracer(mc)
        tracer.detach()
        assert mc.command_listeners == []

    def test_events_optional(self):
        kernel = Kernel()
        mc = MemoryController(kernel, DDR4_2400)
        tracer = CommandTracer(mc, keep_events=False)
        am = AddressMapper(mc.geometry)
        mc.submit(Request(addr=am.decode(0), type=RequestType.READ))
        kernel.run()
        assert tracer.events == []
        assert tracer.command_counts["RD"] == 1


class TestSubRank:
    def test_subrank_mapping(self):
        assert SubRankScheme.subrank_of(0) == 0
        assert SubRankScheme.subrank_of(16) == 1
        assert SubRankScheme.subrank_of(48) == 3
        assert SubRankScheme.subrank_of(64) == 0

    def test_full_line_read_spans_all_subranks(self):
        scheme = make_scheme("sub-rank")
        requests = scheme.lower_read(0)
        assert sorted(r.subrank for r in requests) == list(range(SUBRANKS))

    def test_sector_read_fetches_only_requested(self):
        scheme = make_scheme("sub-rank")
        requests = scheme.lower_read_sectors(0, 0b0010)
        assert len(requests) == 1 and requests[0].subrank == 1

    def test_fetch_fills_requested_sectors_only(self):
        kernel = Kernel()
        system = MemorySystem(kernel, make_scheme("sub-rank"),
                              SystemConfig())
        done = []
        system.issue_fetch(0, 0, 0b0001, lambda: done.append(1))
        kernel.run()
        assert done == [1]
        res = system.lookup(0, 0, 0b1111)
        assert res.missing_mask == 0b1110  # other sectors still missing

    def test_subrank_transfers_overlap(self):
        """Four reads from four different sub-ranks finish faster than
        four full-width bursts would."""
        kernel = Kernel()
        mc = MemoryController(kernel, DDR4_2400)
        am = AddressMapper(mc.geometry)
        finish = []
        for s in range(4):
            mc.submit(
                Request(
                    addr=am.decode(16 * s),
                    type=RequestType.READ,
                    subrank=s,
                    on_complete=lambda r, t: finish.append(t),
                )
            )
        kernel.run()
        span = max(finish) - min(finish)
        # overlapping quarter-width transfers: bounded by tCCD, not 4*tBL
        assert span <= 3 * DDR4_2400.tCCD_L

    def test_same_subrank_serializes(self):
        kernel = Kernel()
        mc = MemoryController(kernel, DDR4_2400)
        am = AddressMapper(mc.geometry)
        finish = []
        for i in range(4):
            mc.submit(
                Request(
                    addr=am.decode(64 * i),  # all chunk 0 -> sub-rank 0
                    type=RequestType.READ,
                    subrank=0,
                    on_complete=lambda r, t: finish.append(t),
                )
            )
        kernel.run()
        span = max(finish) - min(finish)
        assert span >= 3 * DDR4_2400.tBL  # back-to-back, no overlap

    def test_strided_query_barely_helped(self):
        from repro.workloads import make_tables
        from repro.imdb import by_name
        from repro.sim import run_query

        query = by_name()["Q3"]
        base = run_query("baseline", query, make_tables(256, 256))
        sub = run_query("sub-rank", query, make_tables(256, 256))
        assert str(sub.result) == str(base.result)
        speed = base.cycles / sub.cycles
        assert speed < 1.6  # far from SAM's ~4x

    def test_not_chipkill_compatible(self):
        assert not make_scheme("sub-rank").traits.ecc_compatible
