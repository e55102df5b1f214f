"""Reliability evaluation (the chipkill claims of Sections 3-4).

Two complementary analyses:

* **structural** -- codeword-integrity checks per access scheme: a strided
  transfer is protectable only if it moves complete codewords
  (:mod:`repro.ecc.layout`); SAM does, GS-DRAM does not.
* **empirical** -- Monte-Carlo fault injection through the real RS
  decoders: chip faults, DQ faults, double-chip faults, with per-design
  protection rates (GS-DRAM's strided accesses run uncovered).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence

from ..core.registry import make_scheme
from ..exp import ExperimentSpec, SweepEngine, SweepPoint
from ..ecc.chipkill import SSCCodec, SSCDSDCodec
from ..ecc.injection import FAULT_MODELS, run_campaign, unprotected_tally
from ..ecc.layout import (
    gs_dram_gather_check,
    regular_transfer_check,
    sam_gather_check,
)


@dataclass
class ReliabilityRow:
    design: str
    strided_codewords_intact: bool
    chip_fault_protection: float  # fraction corrected-or-detected
    dq_fault_protection: float
    double_chip_protection: float


def evaluate_design(design: str, trials: int = 500,
                    seed: int = 0) -> ReliabilityRow:
    """Reliability of strided accesses under one design."""
    scheme = make_scheme(design)
    if not scheme.supports_stride:
        intact = regular_transfer_check().complete
    elif design.startswith("GS-DRAM") and design != "GS-DRAM-ecc":
        intact = gs_dram_gather_check().complete
    elif design == "GS-DRAM-ecc":
        # embedded ECC restores coverage at a bandwidth cost
        intact = True
    else:
        intact = sam_gather_check().complete

    def rate(model: str, codec, offset: int) -> float:
        """Protected fraction of one campaign; broken codewords have no
        decoder to run."""
        if intact:
            tally = run_campaign(codec, FAULT_MODELS[model], trials,
                                 seed + offset)
        else:
            tally = unprotected_tally(FAULT_MODELS[model], trials,
                                      seed + offset)
        return tally.protected_rate

    return ReliabilityRow(
        design,
        intact,
        rate("chip", SSCCodec(), 0),
        rate("dq", SSCCodec(), 1),
        rate("double_chip", SSCDSDCodec(), 2),
    )


#: the designs of the reliability matrix, in display order
RELIABILITY_DESIGNS = (
    "baseline", "SAM-sub", "SAM-IO", "SAM-en",
    "GS-DRAM", "GS-DRAM-ecc", "RC-NVM-wd",
)


def build_reliability_spec(
    trials: int = 500,
    seed: int = 0,
    designs: Sequence[str] = RELIABILITY_DESIGNS,
) -> ExperimentSpec:
    """The reliability matrix as data: one Monte-Carlo campaign per
    design (``kind="reliability"`` points dispatch to
    :func:`evaluate_design` in whichever process runs them)."""
    points = tuple(
        SweepPoint(
            key=("reliability", d),
            kind="reliability",
            scheme=d,
            params=(("seed", seed), ("trials", trials)),
        )
        for d in designs
    )
    return ExperimentSpec(
        "reliability", points,
        normalize="protection rates are already fractions",
    )


@dataclass
class ReliabilityResult:
    """The reliability matrix: one row per design, in display order."""

    trials: int
    rows: Dict[str, ReliabilityRow]

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "reliability",
            "trials": self.trials,
            "designs": {name: asdict(row) for name, row in self.rows.items()},
        }

    def render(self) -> str:
        lines = [
            "design        codewords-intact  chip-fault  dq-fault  double-chip"
        ]
        for row in self.rows.values():
            lines.append(
                f"{row.design:13s} {str(row.strided_codewords_intact):>14}"
                f"  {row.chip_fault_protection:9.1%}"
                f" {row.dq_fault_protection:9.1%}"
                f" {row.double_chip_protection:11.1%}"
            )
        return "\n".join(lines)


def run_reliability(
    trials: int = 500,
    engine: Optional[SweepEngine] = None,
) -> ReliabilityResult:
    spec = build_reliability_spec(trials)
    run = (engine or SweepEngine()).run(spec)
    return ReliabilityResult(
        trials, {p.scheme: run[p.key] for p in spec.points}
    )
