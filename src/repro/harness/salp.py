"""SALP interaction sweep: subarray-level parallelism x strided access.

Kim et al. (ISCA'12) exploit the subarray substructure of a DRAM bank to
overlap precharges and activates that the classic bank model serializes.
This harness measures how much of the row-store bank-conflict penalty
each SALP flavour recovers on the benchmark's conflict-heavy queries --
the joins (Q7/Q8) ping-pong between Ta and Tb, whose address regions map
to the *same banks in different subarrays*, and the aggregates stream a
wide table through a narrow row-buffer -- and whether the recovery
composes with SAM's strided gathers (``SAM-en+masa``).

Every point is one end-to-end simulation through the standard
:class:`~repro.exp.SweepEngine` (so ``--jobs``, ``--check`` and the
result cache behave exactly like the figure harnesses).  Beyond the
usual speedups, the payload keeps each run's precharge/activate stall
cycles (the ``trp``/``tras`` attribution buckets that SALP exists to
shrink) and the MASA ``SA_SEL`` command count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.registry import SALP_DESIGNS
from ..exp import (
    ExperimentSpec,
    SweepEngine,
    baseline_grid,
    design_list,
    standard_tables,
)
from ..workloads import QueryWorkload
from ..imdb.queries import q_queries
from .figure12 import select_queries

#: Bank-conflict-heavy queries: the two joins plus a wide aggregate.
SALP_QUERIES = ("Q3", "Q7", "Q8")

#: The stall buckets SALP targets (precharge / activate serialization).
CONFLICT_STALLS = ("trp", "tras")


@dataclass
class SALPSweepResult:
    """Speedups plus conflict-stall accounting per (design, query)."""

    designs: List[str]
    queries: List[str]
    #: cycles[design][query]; includes the "baseline" row
    cycles: Dict[str, Dict[str, int]]
    #: speedup over the row-store baseline, per query
    speedups: Dict[str, Dict[str, float]]
    #: merged stall attribution {reason: cycles} per (design, query)
    stalls: Dict[str, Dict[str, Dict[str, int]]]
    #: MASA subarray-select commands issued, per (design, query)
    sa_sels: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def conflict_cycles(self, design: str, query: str) -> int:
        """Precharge + activate stall cycles of one run."""
        per = self.stalls[design][query]
        return sum(int(per.get(r, 0)) for r in CONFLICT_STALLS)

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "salp-sweep",
            "designs": self.designs,
            "queries": self.queries,
            "cycles": self.cycles,
            "speedups": self.speedups,
            "stalls": self.stalls,
            "sa_sels": self.sa_sels,
            "conflict_stalls": {
                d: {
                    q: self.conflict_cycles(d, q) for q in self.queries
                }
                for d in ["baseline"] + self.designs
            },
        }

    def render(self) -> str:
        designs = self.designs
        lines = ["Speedup over baseline:"]
        lines.append(
            "query".ljust(8) + "".join(d.rjust(13) for d in designs)
        )
        for q in self.queries:
            lines.append(
                q.ljust(8)
                + "".join(f"{self.speedups[d][q]:13.2f}" for d in designs)
            )
        lines.append("")
        lines.append("Precharge+activate stall cycles (trp+tras):")
        lines.append(
            "query".ljust(8) + "baseline".rjust(13)
            + "".join(d.rjust(13) for d in designs)
        )
        for q in self.queries:
            row = q.ljust(8) + f"{self.conflict_cycles('baseline', q):13d}"
            row += "".join(
                f"{self.conflict_cycles(d, q):13d}" for d in designs
            )
            lines.append(row)
        sa = [
            f"{d}/{q}={self.sa_sels[d][q]}"
            for d in designs
            for q in self.queries
            if self.sa_sels.get(d, {}).get(q, 0)
        ]
        if sa:
            lines.append("")
            lines.append("SA_SEL commands: " + ", ".join(sa))
        return "\n".join(lines)


def build_salp_spec(
    n_ta: int = 2048,
    n_tb: int = 4096,
    designs: Optional[Sequence[str]] = None,
    queries: Optional[Sequence[str]] = None,
    gather_factor: int = 8,
) -> ExperimentSpec:
    """The sweep as data: baseline plus every design, per query.
    ``meta`` names the designs and the queries."""
    designs = design_list(designs, SALP_DESIGNS)
    q_list = select_queries(
        SALP_QUERIES if queries is None else queries, q_queries()
    )
    tables = standard_tables(n_ta, n_tb)
    return ExperimentSpec(
        "salp",
        baseline_grid(
            designs,
            [QueryWorkload(query=q, tables=tables) for q in q_list],
            gather_factor,
        ),
        normalize="divide by baseline cycles per query",
        meta=(("designs", designs),
              ("queries", tuple(q.name for q in q_list))),
    )


def run_salp_sweep(
    n_ta: int = 2048,
    n_tb: int = 4096,
    designs: Optional[Sequence[str]] = None,
    queries: Optional[Sequence[str]] = None,
    gather_factor: int = 8,
    engine: Optional[SweepEngine] = None,
) -> SALPSweepResult:
    """Run the SALP interaction sweep and shape the stall accounting."""
    spec = build_salp_spec(n_ta, n_tb, designs, queries, gather_factor)
    run = (engine or SweepEngine()).run(spec)
    meta = dict(spec.meta)
    design_names = list(meta["designs"])
    query_names = list(meta["queries"])

    series = ["baseline"] + design_names
    cycles: Dict[str, Dict[str, int]] = {
        d: {q: run.cycles((d, q)) for q in query_names} for d in series
    }
    speedups = {
        d: {
            q: run.speedup((d, q), ("baseline", q)) for q in query_names
        }
        for d in design_names
    }
    stalls: Dict[str, Dict[str, Dict[str, int]]] = {}
    sa_sels: Dict[str, Dict[str, int]] = {}
    for d in series:
        stalls[d] = {}
        sa_sels[d] = {}
        for q in query_names:
            result = run[(d, q)]
            merged = (result.stalls or {}).get("merged", {})
            stalls[d][q] = {k: int(v) for k, v in sorted(merged.items())}
            sa_sels[d][q] = int(getattr(result.memory_stats, "sa_sels", 0))
    return SALPSweepResult(
        design_names, query_names, cycles, speedups, stalls, sa_sels
    )
