"""Tests for the experiment harness (small configurations)."""

import pytest

from repro.harness.figure12 import run_figure12
from repro.harness.figure13 import CLASSES, run_figure13
from repro.harness.figure14 import (
    run_figure14a,
    run_figure14b,
    run_figure14c,
)
from repro.harness.figure15 import (
    run_record_size_sweep,
    run_selectivity_sweep,
)
from repro.harness.reliability import run_reliability
from repro.workloads import geomean, make_tables


class TestWorkload:
    def test_make_tables_shapes(self):
        tables = make_tables(100, 200)
        assert tables["Ta"].n_records == 100
        assert tables["Tb"].n_records == 200

    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1, 0])


class TestFigure12:
    def test_small_run(self):
        result = run_figure12(
            n_ta=128,
            n_tb=128,
            designs=["SAM-en", "SAM-sub"],
            queries=["Q3", "Qs1"],
            include_ideal=True,
        )
        assert set(result.speedups) == {"SAM-en", "SAM-sub", "ideal"}
        assert result.speedups["SAM-en"]["Q3"] > 1.5
        assert result.speedups["SAM-en"]["Qs1"] == pytest.approx(1.0,
                                                                 abs=0.05)
        text = result.render()
        assert "Gmean(Q)" in text and "Gmean(Qs)" in text

    def test_gmean_helpers(self):
        result = run_figure12(
            n_ta=128, n_tb=128, designs=["SAM-en"],
            queries=["Q3", "Q4"], include_ideal=False,
        )
        g = result.q_gmean("SAM-en")
        assert g == pytest.approx(
            geomean(result.speedups["SAM-en"].values())
        )


class TestFigure13:
    def test_classes_cover_benchmark(self):
        names = [q for qs in CLASSES.values() for q in qs]
        assert len(names) == 18

    def test_small_run(self):
        result = run_figure13(n_ta=64, n_tb=128, designs=["SAM-IO"])
        cls = "Read(Q1-Q10)"
        assert result.efficiency[cls]["baseline"] == pytest.approx(1.0)
        assert result.efficiency[cls]["SAM-IO"] > 1.2
        assert result.power_mw[cls]["SAM-IO"]["total"] > result.power_mw[
            cls
        ]["baseline"]["total"]


class TestFigure14:
    def test_substrate_swap(self):
        result = run_figure14a(
            n_ta=128, n_tb=128,
            designs=["SAM-en", "RC-NVM-wd"],
            queries=["Q3", "Qs1"],
        )
        # SAM on DRAM beats SAM on NVM; both substrates run
        assert result.speedups["DRAM"]["SAM-en"] > result.speedups["NVM"][
            "SAM-en"
        ]
        assert "RC-NVM-wd" in result.speedups["NVM"]

    def test_granularity_ordering(self):
        result = run_figure14b(
            n_ta=128, n_tb=128, designs=["SAM-en"], queries=["Q3"]
        )
        assert (
            result.speedups[4]["SAM-en"]
            > result.speedups[8]["SAM-en"]
            > result.speedups[16]["SAM-en"]
        )

    def test_area_inventory(self):
        designs = run_figure14c()
        assert designs["SAM-IO"].silicon_fraction < 0.001
        assert designs["RC-NVM-wd"].silicon_fraction > 0.2


class TestFigure15:
    def test_selectivity_sweep_shape(self):
        panel = run_selectivity_sweep(
            8, n_ta=128, designs=["SAM-en"], selectivities=(0.25, 1.0)
        )
        assert set(panel.points) == {0.25, 1.0}
        for per in panel.points.values():
            assert "SAM-en" in per and "ideal" in per

    def test_record_size_sweep(self):
        panel = run_record_size_sweep(
            n_bytes_total=64 * 1024,
            designs=["SAM-en"],
            record_fields=(8, 128),
        )
        assert set(panel.points) == {8, 128}

    def test_render(self):
        panel = run_selectivity_sweep(
            8, n_ta=128, designs=["SAM-en"], selectivities=(1.0,)
        )
        assert "selectivity" in panel.render()


class TestReliability:
    def test_gs_dram_unprotected(self):
        rows = run_reliability(trials=50).rows
        assert not rows["GS-DRAM"].strided_codewords_intact
        assert rows["GS-DRAM"].chip_fault_protection == 0.0

    def test_sam_fully_protected(self):
        rows = run_reliability(trials=50).rows
        for design in ("SAM-sub", "SAM-IO", "SAM-en"):
            assert rows[design].strided_codewords_intact
            assert rows[design].chip_fault_protection == 1.0
            assert rows[design].double_chip_protection == 1.0


class TestFigure13Internals:
    def test_power_breakdown_components_sum(self):
        result = run_figure13(n_ta=64, n_tb=64, designs=[])
        for cls, per in result.power_mw.items():
            parts = per["baseline"]
            assert parts["total"] == pytest.approx(
                parts["background"] + parts["rdwr"] + parts["act"],
                rel=1e-6,
            )


class TestSSCDSDLineCodec:
    def test_line_as_two_wide_codewords(self):
        import random

        from repro.ecc.chipkill import SSCDSDCodec, decode_line, encode_line

        rng = random.Random(9)
        codec = SSCDSDCodec()
        line = bytes(rng.randrange(256) for _ in range(64))
        parity = encode_line(line, codec)
        assert len(parity) == 8  # 2 codewords x 4 parity bytes
        bad = bytearray(line)
        bad[5] ^= 0x77  # one chip of the first wide codeword
        decoded, reports = decode_line(bytes(bad), parity, codec)
        assert decoded == line
        assert len(reports) == 2
