"""Figure 13: power and energy efficiency by query class.

Paper values: SAM-IO read power ~1.8x baseline with energy efficiency
2.4x (reads) / 2.9x (writes); all DRAM designs match the baseline on Qs
queries; NVM shows better read efficiency but worse writes.
"""

import pytest

from conftest import emit
from repro.harness.figure13 import run_figure13

#: compared against the baseline, which every sweep runs itself
DESIGNS = ("SAM-sub", "SAM-IO", "SAM-en", "GS-DRAM-ecc", "RC-NVM-wd")


def test_fig13_power_and_efficiency(benchmark, bench_sizes):
    n_ta, n_tb = bench_sizes
    result = benchmark.pedantic(
        lambda: run_figure13(
            n_ta=max(64, n_ta // 2), n_tb=max(128, n_tb // 2),
            designs=DESIGNS,
        ),
        rounds=1,
        iterations=1,
    )
    emit("Figure 13: power (mW) and energy efficiency vs baseline",
         result.render())

    reads = "Read(Q1-Q10)"
    writes = "Write(Q11,Q12)"
    qs_writes = "Write(Qs5,Qs6)"
    power = result.power_mw
    eff = result.efficiency

    # SAM-IO raises power (x16-class internal movement) ...
    assert power[reads]["SAM-IO"]["total"] > 1.4 * power[reads][
        "baseline"
    ]["total"]
    # ... but still wins on energy (finishes much earlier)
    assert eff[reads]["SAM-IO"] > 1.5
    assert eff[writes]["SAM-IO"] > 1.5
    # SAM-en strictly better than SAM-IO (fine-grained activation)
    assert eff[reads]["SAM-en"] > eff[reads]["SAM-IO"]
    assert power[reads]["SAM-en"]["total"] < power[reads]["SAM-IO"]["total"]
    # NVM: low background, better read efficiency, worse on writes
    assert power[reads]["RC-NVM-wd"]["background"] < 0.1 * power[reads][
        "baseline"
    ]["background"]
    assert eff[qs_writes]["RC-NVM-wd"] < 1.0
    # Qs queries: DRAM designs with the row-store layout match baseline
    assert eff["Read(Qs1-Qs4)"]["SAM-IO"] == pytest.approx(1.0, abs=0.05)
