"""Figure 12: speedup of every design on the Q and Qs queries.

Every (scheme, query) pair is simulated end to end; speedups are
normalized to the commodity row-store baseline, exactly as in the paper.
The ``ideal`` series is a row store for Qs queries and a column store for
Q queries.

The harness is a thin layer over :mod:`repro.exp`: it *builds* a
declarative :class:`~repro.exp.ExperimentSpec` of every (scheme, query)
point and *shapes* the engine's results into :class:`Figure12Result`;
execution order, parallelism (``--jobs``) and result caching live in the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.registry import FIGURE12_DESIGNS
from ..exp import (
    ExperimentSpec,
    SweepEngine,
    SweepPoint,
    UsageError,
    baseline_grid,
    design_list,
    standard_tables,
)
from ..imdb.queries import q_queries, qs_queries
from ..imdb.query import Query
from ..workloads import QueryWorkload, geomean


@dataclass
class Figure12Result:
    """Speedups[design][query], normalized to the row-store baseline."""

    speedups: Dict[str, Dict[str, float]]
    baseline_cycles: Dict[str, int]
    q_names: List[str]
    qs_names: List[str]

    def gmean(self, design: str, queries: Sequence[str]) -> float:
        if not queries:
            return float("nan")
        return geomean(self.speedups[design][q] for q in queries)

    def q_gmean(self, design: str) -> float:
        return self.gmean(design, self.q_names)

    def qs_gmean(self, design: str) -> float:
        return self.gmean(design, self.qs_names)

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure12",
            "designs": list(self.speedups),
            "q_names": self.q_names,
            "qs_names": self.qs_names,
            "speedups": self.speedups,
            "baseline_cycles": self.baseline_cycles,
            "gmeans": {
                d: {
                    "Q": self.q_gmean(d) if self.q_names else None,
                    "Qs": self.qs_gmean(d) if self.qs_names else None,
                }
                for d in self.speedups
            },
        }

    def render(self) -> str:
        designs = list(self.speedups)
        lines = []
        header = "query".ljust(8) + "".join(d.rjust(13) for d in designs)
        lines.append(header)
        rows = list(self.q_names)
        if self.q_names:
            rows.append("Gmean(Q)")
        rows += self.qs_names
        if self.qs_names:
            rows.append("Gmean(Qs)")
        for name in rows:
            row = name.ljust(8)
            for d in designs:
                if name == "Gmean(Q)":
                    v = self.q_gmean(d)
                elif name == "Gmean(Qs)":
                    v = self.qs_gmean(d)
                else:
                    v = self.speedups[d][name]
                row += f"{v:13.2f}"
            lines.append(row)
        return "\n".join(lines)


class UnknownQueryError(UsageError):
    """A query selection names queries the sweep does not have."""


def select_queries(
    names: Optional[Sequence[str]], family: Sequence[Query]
) -> List[Query]:
    """The queries of ``family`` named in ``names`` (``None``: all of
    them), in family order; a name outside the family is a usage error."""
    if names is None:
        return list(family)
    known = [q.name for q in family]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise UnknownQueryError(
            f"unknown queries: {' '.join(unknown)} "
            f"(known: {' '.join(known)})"
        )
    return [q for q in family if q.name in names]


def build_figure12_spec(
    n_ta: int = 2048,
    n_tb: int = 4096,
    designs: Optional[Sequence[str]] = None,
    queries: Optional[Sequence[str]] = None,
    include_ideal: bool = True,
    gather_factor: int = 8,
) -> ExperimentSpec:
    """Figure 12 as data: one point per (series, query).  ``meta`` names
    the plotted series and the selected Q and Qs queries."""
    q_all = q_queries()
    selected = select_queries(queries, q_all + qs_queries())
    designs = design_list(designs, FIGURE12_DESIGNS)
    tables = standard_tables(n_ta, n_tb)
    workloads = [QueryWorkload(query=q, tables=tables) for q in selected]
    points = baseline_grid(designs, workloads, gather_factor)
    if include_ideal:
        # the paper's "ideal": a plain row store for row-preferring
        # queries, a plain column store for column-preferring ones
        points += tuple(
            SweepPoint(
                key=("ideal", w.name),
                scheme=("baseline" if w.query.prefers == "row"
                        else "column-store"),
                workload=w,
            )
            for w in workloads
        )
    return ExperimentSpec(
        "figure12", points,
        normalize="divide by baseline cycles per query",
        meta=(
            ("series", designs + (("ideal",) if include_ideal else ())),
            ("q_names", tuple(q.name for q in selected if q in q_all)),
            ("qs_names", tuple(q.name for q in selected
                               if q not in q_all)),
        ),
    )


def run_figure12(
    n_ta: int = 2048,
    n_tb: int = 4096,
    designs: Optional[Sequence[str]] = None,
    queries: Optional[Sequence[str]] = None,
    include_ideal: bool = True,
    gather_factor: int = 8,
    engine: Optional[SweepEngine] = None,
) -> Figure12Result:
    """Regenerate Figure 12 (optionally restricted to some designs/queries).

    ``gather_factor=8`` is the paper's default: SSC-DSD chipkill with 4-bit
    strided granularity.  ``engine`` chooses parallelism and caching; the
    default runs serially without a cache.
    """
    spec = build_figure12_spec(
        n_ta, n_tb, designs, queries, include_ideal, gather_factor
    )
    run = (engine or SweepEngine()).run(spec)
    meta = dict(spec.meta)
    names = meta["q_names"] + meta["qs_names"]
    return Figure12Result(
        {
            series: {
                q: run.speedup((series, q), ("baseline", q)) for q in names
            }
            for series in meta["series"]
        },
        {q: run.cycles(("baseline", q)) for q in names},
        list(meta["q_names"]),
        list(meta["qs_names"]),
    )
