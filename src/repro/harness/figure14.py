"""Figure 14: substrate swap, strided granularity, and area overhead.

(a) RC-NVM and SAM implemented on each other's technology: RC-NVM-wd and
    SAM designs with DRAM vs NVM (RRAM) timing.
(b) Performance of RC-NVM-wd, GS-DRAM-ecc and SAM-en at 16/8/4-bit strided
    granularity (gather factors 2/4/8).
(c) Area / storage overhead of every design (static model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..area.overhead import AreaReport, all_designs
from ..exp import ExperimentSpec, SweepEngine, SweepPoint, standard_tables
from ..imdb.queries import all_queries, q_queries
from ..workloads import QueryWorkload, geomean
from .figure12 import select_queries


@dataclass
class Figure14aResult:
    """Average speedup (all queries) of each design on each substrate."""

    speedups: Dict[str, Dict[str, float]]  # substrate -> design -> gmean

    def payload(self) -> Dict[str, object]:
        return {"kind": "figure14a", "speedups": self.speedups}

    def render(self) -> str:
        lines = ["design           on-DRAM   on-NVM"]
        designs = sorted(
            {d for per in self.speedups.values() for d in per}
        )
        for d in designs:
            dram = self.speedups["DRAM"].get(d, float("nan"))
            nvm = self.speedups["NVM"].get(d, float("nan"))
            lines.append(f"{d:14s} {dram:9.2f} {nvm:8.2f}")
        return "\n".join(lines)


#: Figure 14(a) substrates: display label -> timing preset to force.
SUBSTRATES = (("DRAM", "DDR4-2400"), ("NVM", "RRAM"))

#: The designs Figure 14(a) moves between substrates.
FIGURE14A_DESIGNS = ("RC-NVM-wd", "SAM-sub", "SAM-IO", "SAM-en")


def build_figure14a_spec(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = FIGURE14A_DESIGNS,
    queries: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Figure 14(a) as data: baseline per query + every design on every
    substrate, timing forced via the scheme's immutable ``with_timing``
    clone (no shared-instance monkeypatching).  ``meta`` names the
    queries."""
    q_list = select_queries(queries, all_queries())
    tables = standard_tables(n_ta, n_tb)
    points = [
        SweepPoint(key=("baseline", q.name), scheme="baseline",
                   workload=QueryWorkload(query=q, tables=tables))
        for q in q_list
    ]
    points += [
        SweepPoint(key=(substrate, design, q.name), scheme=design,
                   workload=QueryWorkload(query=q, tables=tables),
                   timing=timing_name)
        for substrate, timing_name in SUBSTRATES
        for design in designs
        for q in q_list
    ]
    return ExperimentSpec(
        "figure14a", tuple(points),
        normalize="divide by baseline cycles per query, gmean per design",
        meta=(("queries", tuple(q.name for q in q_list)),),
    )


def run_figure14a(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = FIGURE14A_DESIGNS,
    queries: Optional[Sequence[str]] = None,
    engine: Optional[SweepEngine] = None,
) -> Figure14aResult:
    """Figure 14(a): every design on both memory technologies."""
    spec = build_figure14a_spec(n_ta, n_tb, designs, queries)
    run = (engine or SweepEngine()).run(spec)
    names = dict(spec.meta)["queries"]
    out: Dict[str, Dict[str, float]] = {"DRAM": {}, "NVM": {}}
    for substrate, _ in SUBSTRATES:
        for design in designs:
            out[substrate][design] = geomean(
                run.speedup((substrate, design, q), ("baseline", q))
                for q in names
            )
    return Figure14aResult(out)


@dataclass
class Figure14bResult:
    """Q-query gmean speedup per design per strided granularity."""

    speedups: Dict[int, Dict[str, float]]  # granularity bits -> design

    def payload(self) -> Dict[str, object]:
        return {
            "kind": "figure14b",
            "speedups": {str(bits): per
                         for bits, per in self.speedups.items()},
        }

    def render(self) -> str:
        lines = ["granularity   " + "".join(
            d.rjust(14)
            for d in next(iter(self.speedups.values()))
        )]
        for bits in sorted(self.speedups, reverse=True):
            row = f"{bits:2d}-bit        "
            for d, v in self.speedups[bits].items():
                row += f"{v:14.2f}"
            lines.append(row)
        return "\n".join(lines)


#: granularity in bits-per-chip -> gather factor (elements per burst)
GRANULARITY_TO_GATHER = {16: 2, 8: 4, 4: 8}

#: The designs Figure 14(b) sweeps over strided granularity.
FIGURE14B_DESIGNS = ("RC-NVM-wd", "GS-DRAM-ecc", "SAM-en")


def build_figure14b_spec(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = FIGURE14B_DESIGNS,
    queries: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Figure 14(b) as data: baseline per query + every design at every
    strided granularity.  ``meta`` names the queries."""
    q_list = select_queries(queries, q_queries())
    tables = standard_tables(n_ta, n_tb)
    points = [
        SweepPoint(key=("baseline", q.name), scheme="baseline",
                   workload=QueryWorkload(query=q, tables=tables))
        for q in q_list
    ]
    points += [
        SweepPoint(key=(f"{bits}-bit", design, q.name), scheme=design,
                   workload=QueryWorkload(query=q, tables=tables),
                   gather_factor=factor)
        for bits, factor in GRANULARITY_TO_GATHER.items()
        for design in designs
        for q in q_list
    ]
    return ExperimentSpec(
        "figure14b", tuple(points),
        normalize="divide by baseline cycles per query, gmean per design",
        meta=(("queries", tuple(q.name for q in q_list)),),
    )


def run_figure14b(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = FIGURE14B_DESIGNS,
    queries: Optional[Sequence[str]] = None,
    engine: Optional[SweepEngine] = None,
) -> Figure14bResult:
    """Figure 14(b): strided granularity sweep over Q queries."""
    spec = build_figure14b_spec(n_ta, n_tb, designs, queries)
    run = (engine or SweepEngine()).run(spec)
    names = dict(spec.meta)["queries"]
    out: Dict[int, Dict[str, float]] = {}
    for bits in GRANULARITY_TO_GATHER:
        out[bits] = {}
        for design in designs:
            out[bits][design] = geomean(
                run.speedup((f"{bits}-bit", design, q), ("baseline", q))
                for q in names
            )
    return Figure14bResult(out)


def run_figure14c() -> Dict[str, AreaReport]:
    """Figure 14(c): the static area/storage overhead model."""
    return all_designs()


def figure14c_payload() -> Dict[str, object]:
    """Machine-readable Figure 14(c)."""
    return {
        "kind": "figure14c",
        "designs": {
            name: {
                "silicon_fraction": report.silicon_fraction,
                "storage_fraction": report.storage_fraction,
                "extra_metal_layers": report.extra_metal_layers,
            }
            for name, report in run_figure14c().items()
        },
    }


def render_figure14c() -> str:
    lines = ["design          silicon   storage   extra-metal"]
    for name, report in run_figure14c().items():
        lines.append(
            f"{name:14s} {report.silicon_fraction:8.3%} "
            f"{report.storage_fraction:8.3%}   {report.extra_metal_layers}"
        )
    return "\n".join(lines)
