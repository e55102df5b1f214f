"""Golden command streams: absolute cycles, command counts and a digest of
the issued command trace for every registered design on a small grid.

The fast-vs-reference batteries compare two scheduler paths that share
their readiness rules, so a drift in those rules moves both sides alike.
These pins do not: each entry was captured from a known-good build, and
any change to what the controller issues, or when, fails here.  Re-pin
only for a change that says up front that simulated behaviour moves.

Grid: every registered scheme x {Q1, Q3, Q7, Qs1} at Ta=64 / Tb=128
records, plus the ``strided_read[stride=256]`` micro-kernel.
"""

import hashlib

import pytest

from repro.core.registry import available_schemes
from repro.imdb.queries import by_name
from repro.obs import Observation
from repro.sim.runner import run_workload
from repro.workloads import KernelWorkload, QueryWorkload, standard_tables

TA, TB = 64, 128
WORKLOADS = ("Q1", "Q3", "Q7", "Qs1", "strided_read[stride=256]")
#: the CommandStats fields that count issued commands
COUNTS = ("acts", "col_acts", "reads", "writes", "precharges", "refreshes",
          "mode_switches", "sa_sels")


def _workload(name):
    if "[" in name:
        return KernelWorkload.from_spec(name)
    return QueryWorkload(query=by_name()[name],
                         tables=standard_tables(TA, TB))


def measure(scheme, workload):
    """(cycles, command counts, trace digest) of one traced run."""
    obs = Observation(trace=True)
    result = run_workload(_workload(workload), scheme, observe=obs)
    stats = result.memory_stats
    trace = hashlib.sha256()
    for event in obs.tracer.events:
        trace.update(repr(event.as_tuple()).encode())
    return (
        result.cycles,
        tuple(getattr(stats, name) for name in COUNTS),
        trace.hexdigest()[:16],
    )


#: (scheme, workload) -> (cycles, COUNTS, trace digest)
GOLDEN = {
    ('GS-DRAM', 'Q1'):
        (152, (1, 0, 20, 0, 0, 0, 0, 0), '746035098b074bc8'),
    ('GS-DRAM', 'Q3'):
        (116, (1, 0, 14, 0, 0, 0, 0, 0), 'a4ea2ad7b1a64734'),
    ('GS-DRAM', 'Q7'):
        (395, (3, 0, 65, 0, 1, 0, 0, 0), '1b8df9291e184239'),
    ('GS-DRAM', 'Qs1'):
        (4132, (8, 0, 1024, 0, 0, 0, 0, 0), '9abd11bcd986ebaf'),
    ('GS-DRAM', 'strided_read[stride=256]'):
        (294, (4, 0, 64, 0, 0, 0, 0, 0), '141379e826e756bd'),
    ('GS-DRAM-ecc', 'Q1'):
        (272, (1, 0, 40, 0, 0, 0, 0, 0), 'c5576bcaf31df4e3'),
    ('GS-DRAM-ecc', 'Q3'):
        (200, (1, 0, 28, 0, 0, 0, 0, 0), '69477defd51d47ba'),
    ('GS-DRAM-ecc', 'Q7'):
        (721, (3, 0, 130, 0, 1, 0, 0, 0), '0e976210d35e1037'),
    ('GS-DRAM-ecc', 'Qs1'):
        (4648, (8, 0, 1152, 0, 0, 0, 0, 0), 'd3989f00ad54dfad'),
    ('GS-DRAM-ecc', 'strided_read[stride=256]'):
        (550, (4, 0, 128, 0, 0, 0, 0, 0), '0100b65416b79201'),
    ('RC-NVM-bit', 'Q1'):
        (693, (0, 5, 20, 0, 4, 0, 0, 0), '3266ee63de1e4f77'),
    ('RC-NVM-bit', 'Q3'):
        (417, (0, 2, 14, 0, 1, 0, 0, 0), 'c0ea02fdb337b529'),
    ('RC-NVM-bit', 'Q7'):
        (1332, (0, 13, 65, 0, 11, 0, 0, 0), 'ca25bc3c6fefbac1'),
    ('RC-NVM-bit', 'Qs1'):
        (8969, (64, 0, 1024, 0, 63, 0, 0, 0), 'ad714f9324f0e527'),
    ('RC-NVM-bit', 'strided_read[stride=256]'):
        (405, (0, 8, 64, 0, 0, 0, 0, 0), 'd485ce72d90f96e7'),
    ('RC-NVM-wd', 'Q1'):
        (437, (0, 6, 20, 0, 5, 0, 0, 0), 'bfca0b70ed3787b9'),
    ('RC-NVM-wd', 'Q3'):
        (197, (0, 2, 14, 0, 1, 0, 0, 0), '60985515f075ea51'),
    ('RC-NVM-wd', 'Q7'):
        (920, (0, 20, 65, 0, 18, 0, 0, 0), 'f45e3eea3ab947d8'),
    ('RC-NVM-wd', 'Qs1'):
        (9417, (64, 0, 1024, 0, 63, 0, 0, 0), '2a1a6ab8b44abf18'),
    ('RC-NVM-wd', 'strided_read[stride=256]'):
        (324, (0, 8, 64, 0, 0, 0, 0, 0), 'cef89cacf917a018'),
    ('SAM-IO', 'Q1'):
        (116, (8, 0, 20, 0, 0, 0, 1, 0), '09627f665e6b9133'),
    ('SAM-IO', 'Q3'):
        (92, (8, 0, 14, 0, 0, 0, 1, 0), '2b80eac04c6d3bed'),
    ('SAM-IO', 'Q7'):
        (357, (12, 0, 65, 0, 4, 0, 1, 0), '458c23b6408569f9'),
    ('SAM-IO', 'Qs1'):
        (4132, (8, 0, 1024, 0, 0, 0, 0, 0), '5756cda01dc4ed39'),
    ('SAM-IO', 'strided_read[stride=256]'):
        (292, (16, 0, 64, 0, 0, 0, 1, 0), 'd982965f6e85f424'),
    ('SAM-en', 'Q1'):
        (116, (8, 0, 20, 0, 0, 0, 1, 0), '09627f665e6b9133'),
    ('SAM-en', 'Q3'):
        (92, (8, 0, 14, 0, 0, 0, 1, 0), '2b80eac04c6d3bed'),
    ('SAM-en', 'Q7'):
        (357, (12, 0, 65, 0, 4, 0, 1, 0), '458c23b6408569f9'),
    ('SAM-en', 'Qs1'):
        (4130, (8, 0, 1024, 0, 0, 0, 0, 0), 'edf1a33aefd0365e'),
    ('SAM-en', 'strided_read[stride=256]'):
        (292, (16, 0, 64, 0, 0, 0, 1, 0), 'd982965f6e85f424'),
    ('SAM-en+masa', 'Q1'):
        (116, (8, 0, 20, 0, 0, 0, 1, 0), '09627f665e6b9133'),
    ('SAM-en+masa', 'Q3'):
        (92, (8, 0, 14, 0, 0, 0, 1, 0), '2b80eac04c6d3bed'),
    ('SAM-en+masa', 'Q7'):
        (330, (10, 0, 65, 0, 0, 0, 1, 3), 'a56b55e042882bf9'),
    ('SAM-en+masa', 'Qs1'):
        (4130, (8, 0, 1024, 0, 0, 0, 0, 0), 'edf1a33aefd0365e'),
    ('SAM-en+masa', 'strided_read[stride=256]'):
        (292, (16, 0, 64, 0, 0, 0, 1, 0), 'd982965f6e85f424'),
    ('SAM-sub', 'Q1'):
        (151, (0, 14, 20, 0, 6, 0, 0, 0), '917793c38ca5083a'),
    ('SAM-sub', 'Q3'):
        (93, (0, 8, 14, 0, 0, 0, 0, 0), '15c42cbdec490aec'),
    ('SAM-sub', 'Q7'):
        (389, (0, 49, 65, 0, 33, 0, 0, 0), '8ec1b56541b9f180'),
    ('SAM-sub', 'Qs1'):
        (4333, (124, 0, 1024, 0, 116, 0, 0, 0), '3fc3cda93d549945'),
    ('SAM-sub', 'strided_read[stride=256]'):
        (304, (0, 66, 64, 0, 34, 0, 0, 0), '86f284f4c94c5065'),
    ('baseline', 'Q1'):
        (344, (8, 0, 75, 0, 0, 0, 0, 0), '8e50c3b1359c4675'),
    ('baseline', 'Q3'):
        (292, (8, 0, 64, 0, 0, 0, 0, 0), 'e817852c3d3efd8d'),
    ('baseline', 'Q7'):
        (1942, (10, 0, 384, 0, 2, 0, 0, 0), '47898ab42eec9364'),
    ('baseline', 'Qs1'):
        (4130, (8, 0, 1024, 0, 0, 0, 0, 0), 'edf1a33aefd0365e'),
    ('baseline', 'strided_read[stride=256]'):
        (2088, (16, 0, 512, 0, 0, 0, 0, 0), 'd0b58268b6160e9d'),
    ('column-store', 'Q1'):
        (150, (1, 0, 20, 0, 0, 0, 0, 0), 'e6d82debc6500bdd'),
    ('column-store', 'Q3'):
        (114, (1, 0, 14, 0, 0, 0, 0, 0), '7c560b4ebba3e564'),
    ('column-store', 'Q7'):
        (393, (3, 0, 65, 0, 1, 0, 0, 0), 'c29513bec783d358'),
    ('column-store', 'Qs1'):
        (5681, (8, 0, 1024, 0, 0, 0, 0, 0), '37c58fcf7b1d9e0c'),
    ('column-store', 'strided_read[stride=256]'):
        (414, (1, 0, 64, 0, 0, 0, 0, 0), '2dcd52eaf01ef69d'),
    ('masa', 'Q1'):
        (344, (8, 0, 75, 0, 0, 0, 0, 0), '8e50c3b1359c4675'),
    ('masa', 'Q3'):
        (292, (8, 0, 64, 0, 0, 0, 0, 0), 'e817852c3d3efd8d'),
    ('masa', 'Q7'):
        (1928, (10, 0, 384, 0, 0, 0, 0, 4), '967cff535b142c4a'),
    ('masa', 'Qs1'):
        (4130, (8, 0, 1024, 0, 0, 0, 0, 0), 'edf1a33aefd0365e'),
    ('masa', 'strided_read[stride=256]'):
        (2088, (16, 0, 512, 0, 0, 0, 0, 0), 'd0b58268b6160e9d'),
    ('salp1', 'Q1'):
        (344, (8, 0, 75, 0, 0, 0, 0, 0), '8e50c3b1359c4675'),
    ('salp1', 'Q3'):
        (292, (8, 0, 64, 0, 0, 0, 0, 0), 'e817852c3d3efd8d'),
    ('salp1', 'Q7'):
        (1928, (12, 0, 384, 0, 4, 0, 0, 0), '33d341fd19dafa89'),
    ('salp1', 'Qs1'):
        (4130, (8, 0, 1024, 0, 0, 0, 0, 0), 'edf1a33aefd0365e'),
    ('salp1', 'strided_read[stride=256]'):
        (2088, (16, 0, 512, 0, 0, 0, 0, 0), 'd0b58268b6160e9d'),
    ('salp2', 'Q1'):
        (344, (8, 0, 75, 0, 0, 0, 0, 0), '8e50c3b1359c4675'),
    ('salp2', 'Q3'):
        (292, (8, 0, 64, 0, 0, 0, 0, 0), 'e817852c3d3efd8d'),
    ('salp2', 'Q7'):
        (1965, (31, 0, 384, 0, 21, 0, 0, 0), 'ae4c27df615ff11c'),
    ('salp2', 'Qs1'):
        (4130, (8, 0, 1024, 0, 0, 0, 0, 0), 'edf1a33aefd0365e'),
    ('salp2', 'strided_read[stride=256]'):
        (2088, (16, 0, 512, 0, 0, 0, 0, 0), 'd0b58268b6160e9d'),
    ('sub-rank', 'Q1'):
        (357, (8, 0, 86, 0, 0, 0, 0, 0), '17516396d2a16171'),
    ('sub-rank', 'Q3'):
        (294, (8, 0, 75, 0, 0, 0, 0, 0), '7abdcaaed9b029f8'),
    ('sub-rank', 'Q7'):
        (3287, (11, 0, 641, 0, 3, 0, 0, 0), '1b4e2d4145d86eb5'),
    ('sub-rank', 'Qs1'):
        (6654, (12, 0, 4096, 0, 8, 1, 0, 0), '12fee632a7ac7245'),
    ('sub-rank', 'strided_read[stride=256]'):
        (2090, (16, 0, 512, 0, 0, 0, 0, 0), '8f17ad6c6c7a28e3'),
}


def test_grid_covers_every_registered_scheme():
    assert {s for s, _ in GOLDEN} == set(available_schemes())
    assert {w for _, w in GOLDEN} == set(WORKLOADS)
    assert len(GOLDEN) == len(available_schemes()) * len(WORKLOADS)


@pytest.mark.parametrize(
    "scheme,workload", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_command_stream_is_pinned(scheme, workload):
    assert measure(scheme, workload) == GOLDEN[(scheme, workload)]
