"""Every issued DRAM command reaches every consumer.

The controller hands each command -- queued, refresh-path PRE, REF and
the closed-page auto-precharge -- to one listener list, and the channel
hands each data burst to one burst-listener list.  These tests hold the
consumers to the controller's own ``CommandStats``: the tracer's per-kind
counts equal the stats, and the stall ring, the timeline and the protocol
checker see the same total.  Attach order must not matter.
"""

import pytest

from repro.check import TimingProtocolChecker, fuzz
from repro.check.fuzz import generate_case, run_case
from repro.core.registry import available_schemes
from repro.dram import AddressMapper, DDR4_2400, MemoryController
from repro.dram.commands import Command, Request, RequestType
from repro.dram.controller import ControllerConfig
from repro.imdb.queries import by_name
from repro.kernel import Kernel
from repro.obs import Observation
from repro.obs.timeline import TimelineRecorder
from repro.sim import SystemConfig
from repro.sim.runner import run_workload
from repro.sim.trace import CommandTracer
from repro.workloads import QueryWorkload, standard_tables

TA, TB = 64, 128
QUERIES = ("Q1", "Q7", "Qs1")
#: the CommandStats field counting each command kind
STATS_FIELD = {
    "ACT": "acts", "ACT_COL": "col_acts", "RD": "reads", "WR": "writes",
    "PRE": "precharges", "REF": "refreshes", "MRS": "mode_switches",
    "SA_SEL": "sa_sels",
}
#: a stall ring deep enough to hold every command of these runs
RING = 1 << 20


def _stats_counts(stats) -> dict:
    return {cmd.value: getattr(stats, STATS_FIELD[cmd.value])
            for cmd in Command}


def _assert_complete(tracer, stats, *totals) -> None:
    """The tracer counts exactly the commands the stats count, and every
    other consumer saw the same number of commands."""
    expected = _stats_counts(stats)
    assert dict(tracer.command_counts) == {
        name: n for name, n in expected.items() if n
    }
    assert list(totals) == [sum(expected.values())] * len(totals)


def _observed_run(scheme, query, config=None):
    obs = Observation(trace=True, timeline=True, ring_size=RING)
    workload = QueryWorkload(query=by_name()[query],
                             tables=standard_tables(TA, TB))
    result = run_workload(workload, scheme, config=config, observe=obs,
                          check=True)
    return obs, result


def _assert_run_complete(obs, result) -> None:
    _assert_complete(
        obs.tracer, result.memory_stats,
        len(obs.ring),
        len(obs.timeline_recorder.events),
        result.metrics["check.commands"],
    )


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("scheme", available_schemes())
def test_every_consumer_sees_every_command(scheme, query):
    obs, result = _observed_run(scheme, query)
    _assert_run_complete(obs, result)


def test_closed_page_auto_precharges_reach_every_consumer():
    config = SystemConfig(controller=ControllerConfig(page_policy="closed"))
    obs, result = _observed_run("baseline", "Q7", config)
    # one auto-precharge per column command, at least
    stats = result.memory_stats
    assert stats.precharges >= stats.reads + stats.writes
    _assert_run_complete(obs, result)


def test_refresh_fuzz_case_reaches_every_consumer(monkeypatch):
    """A refresh-on fuzz case whose refreshes close open banks: the
    refresh-path precharges count like every other command."""
    made = []

    class TracedController(MemoryController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tracer = CommandTracer(self)
            made.append(self)

    monkeypatch.setattr(fuzz, "MemoryController", TracedController)
    case = generate_case(seed=0, index=8)
    assert case.refresh
    seen = []
    result = run_case(case, oracle_data=False,
                      on_command=lambda *args, **kw: seen.append(args))
    assert not result.failed, result.summary()
    (mc,) = made
    assert mc.stats.refreshes and mc.stats.precharges
    _assert_complete(mc.tracer, mc.stats, len(seen), result.commands)


class _BurstCountingChecker(TimingProtocolChecker):
    bursts = 0

    def on_data_burst(self, *args) -> None:
        self.bursts += 1
        super().on_data_burst(*args)


def _checked_timeline_run(checker_first: bool):
    kernel = Kernel()
    mc = MemoryController(kernel, DDR4_2400)
    checker = _BurstCountingChecker(DDR4_2400, mc.geometry)
    timeline = TimelineRecorder(mc)
    if checker_first:
        checker.attach(mc)
        timeline.attach()
    else:
        timeline.attach()
        checker.attach(mc)
    mapper = AddressMapper(mc.geometry)
    for i, addr in enumerate((0, 64, 8192, 1 << 20, 128, (1 << 20) + 64)):
        kind = RequestType.WRITE if i % 3 == 2 else RequestType.READ
        mc.submit(Request(addr=mapper.decode(addr), type=kind))
    kernel.run()
    return mc, checker, timeline


@pytest.mark.parametrize("checker_first", (True, False),
                         ids=("checker-first", "timeline-first"))
def test_attach_order_does_not_matter(checker_first):
    mc, checker, timeline = _checked_timeline_run(checker_first)
    cas = mc.stats.reads + mc.stats.writes
    assert cas and not checker.violations
    assert checker.bursts == len(timeline.bus_spans) == cas
    assert checker.commands_seen == len(timeline.events)
    _, _, other = _checked_timeline_run(not checker_first)
    assert timeline.events == other.events
    assert timeline.bus_spans == other.bus_spans
