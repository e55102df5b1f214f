"""Reliability of strided accesses (Sections 3-4): SAM keeps chipkill,
GS-DRAM does not."""

import pytest

from conftest import emit
from repro.harness.reliability import run_reliability


def test_reliability_matrix(benchmark):
    result = benchmark.pedantic(
        lambda: run_reliability(trials=400), rounds=1, iterations=1
    )
    emit("Reliability under injected faults (strided accesses)",
         result.render())
    rows = result.rows

    for design in ("baseline", "SAM-sub", "SAM-IO", "SAM-en",
                   "GS-DRAM-ecc", "RC-NVM-wd"):
        row = rows[design]
        assert row.strided_codewords_intact
        assert row.chip_fault_protection == 1.0
        assert row.dq_fault_protection == 1.0
        assert row.double_chip_protection == 1.0

    gs = rows["GS-DRAM"]
    assert not gs.strided_codewords_intact
    assert gs.chip_fault_protection == 0.0
