"""Figure 15: parametric arithmetic/aggregate query sweeps.

Nine panels; all normalized to the row-store baseline, with the "ideal"
series being the better of the row store and the column store per point:

(a)-(c) arithmetic query, selectivity sweep at 8 / 64 / 128 projected fields
(d)-(f) arithmetic query, projectivity sweep at 10% / 50% / 100% selected
(g)     aggregate query, selectivity sweep at 8 projected fields
(h)     aggregate query, projectivity sweep at 100% selected
(i)     record-size sweep at 100% projectivity and selectivity

Each panel is one :class:`~repro.exp.ExperimentSpec` -- the keys are
``(series, x)`` pairs over the panel's x-axis -- and all nine specs can
share one :class:`~repro.exp.SweepEngine` (``run_figure15``), so a whole
figure sweeps in parallel and caches as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..exp import (
    ExperimentSpec,
    SweepEngine,
    SweepPoint,
    TableSpec,
    UsageError,
    standard_tables,
)
from ..imdb.queries import aggregate_query, arithmetic_query
from ..imdb.query import Predicate, SelectQuery
from ..workloads import QueryWorkload

#: The representative designs of Figure 15.
FIG15_DESIGNS = ("RC-NVM-wd", "GS-DRAM-ecc", "SAM-en")

#: sweep axes (paper: 10%..100% selectivity; 4..128 fields projected)
SELECTIVITIES = (0.1, 0.25, 0.5, 0.75, 1.0)
PROJECTIVITIES = (4, 8, 16, 32, 64, 128)
RECORD_FIELDS = (2, 8, 32, 128, 512, 1024)  # 16B .. 8KB records


@dataclass
class SweepResult:
    """One panel: x-axis values -> {design -> speedup}."""

    panel: str
    xlabel: str
    points: Dict[object, Dict[str, float]] = field(default_factory=dict)

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure15-panel",
            "panel": self.panel,
            "xlabel": self.xlabel,
            "points": {str(x): per for x, per in self.points.items()},
        }

    def render(self) -> str:
        designs = list(next(iter(self.points.values())))
        lines = [f"== {self.panel} ({self.xlabel})"]
        lines.append(
            "x".rjust(8) + "".join(d.rjust(14) for d in designs)
        )
        for x, per in self.points.items():
            lines.append(
                f"{x!s:>8}" + "".join(f"{per[d]:14.2f}" for d in designs)
            )
        return "\n".join(lines)


def _run_axis(
    name: str,
    axis: str,
    panel: SweepResult,
    xs: Sequence[object],
    make_query: Callable[[object], object],
    n_ta: int,
    designs: Sequence[str],
    engine: Optional[SweepEngine],
) -> SweepResult:
    """One query-axis panel: at every x, the baseline, the column store
    and every design run ``make_query(x)`` on the same tables.  Speedups
    are over the baseline; ideal is the better of row and column store."""
    tables = standard_tables(n_ta, 64)
    points: List[SweepPoint] = []
    for x in xs:
        workload = QueryWorkload(query=make_query(x), tables=tables)
        points += [
            SweepPoint(key=(series, str(x)), scheme=series,
                       workload=workload)
            for series in ("baseline", "column-store", *designs)
        ]
    run = (engine or SweepEngine()).run(ExperimentSpec(
        name, tuple(points),
        normalize=f"divide by baseline cycles per {axis}",
    ))
    for x in xs:
        base = run.cycles(("baseline", str(x)))
        per: Dict[str, float] = {
            design: run.speedup((design, str(x)), ("baseline", str(x)))
            for design in designs
        }
        col = run.cycles(("column-store", str(x)))
        per["ideal"] = base / min(base, col)
        panel.points[x] = per
    return panel


def run_selectivity_sweep(
    projected: int,
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    selectivities: Sequence[float] = SELECTIVITIES,
    aggregate: bool = False,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Panels (a)-(c) and (g): vary selectivity at fixed projectivity."""
    maker = aggregate_query if aggregate else arithmetic_query
    kind = "aggregate" if aggregate else "arithmetic"
    return _run_axis(
        f"figure15-sel-{kind}-p{projected}", "selectivity",
        SweepResult(f"{kind}, {projected} fields projected", "selectivity"),
        selectivities, lambda sel: maker(projected, sel), n_ta, designs,
        engine,
    )


def run_projectivity_sweep(
    selectivity: float,
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    projectivities: Sequence[int] = PROJECTIVITIES,
    aggregate: bool = False,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Panels (d)-(f) and (h): vary projectivity at fixed selectivity."""
    maker = aggregate_query if aggregate else arithmetic_query
    kind = "aggregate" if aggregate else "arithmetic"
    return _run_axis(
        f"figure15-proj-{kind}-s{selectivity:g}", "projectivity",
        SweepResult(f"{kind}, {selectivity:.0%} records selected",
                    "fields projected"),
        projectivities, lambda proj: maker(proj, selectivity), n_ta,
        designs, engine,
    )


def build_record_size_spec(
    n_bytes_total: int = 1 << 20,
    designs: Sequence[str] = FIG15_DESIGNS,
    record_fields: Sequence[int] = RECORD_FIELDS,
) -> ExperimentSpec:
    """Panel (i) as data: vary record size at constant table footprint.

    Each x-axis value carries its *own* table recipes (fewer records as
    they grow); table data is deterministic in (schema, records, seed),
    so worker processes rebuild identical tables.
    """
    points: List[SweepPoint] = []
    for fields in record_fields:
        ta = TableSpec("Ta", fields, 1, 3)  # for record_bytes only
        n_records = max(8, n_bytes_total // ta.schema.record_bytes)
        tables = (
            TableSpec("Ta", fields, n_records, 3),
            TableSpec("Tb", 16, 64, 4),
        )
        query = SelectQuery(
            f"Arith[rs={fields}]",
            "Ta",
            tuple(range(fields)),
            Predicate.where(0, "<", 1.0),
        )
        x = str(fields)
        workload = QueryWorkload(query=query, tables=tables)
        points.append(SweepPoint(key=("baseline", x), scheme="baseline",
                                 workload=workload))
        points += [
            SweepPoint(key=(design, x), scheme=design, workload=workload)
            for design in designs
        ]
    return ExperimentSpec(
        "figure15-record-size", tuple(points),
        normalize="divide by baseline cycles per record size",
    )


def run_record_size_sweep(
    n_bytes_total: int = 1 << 20,
    designs: Sequence[str] = FIG15_DESIGNS,
    record_fields: Sequence[int] = RECORD_FIELDS,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Panel (i): vary record size at 100% projectivity and selectivity.

    The table footprint is held constant (fewer records as they grow),
    matching the paper's fixed-table-size sweep.
    """
    engine = engine or SweepEngine()
    run = engine.run(build_record_size_spec(
        n_bytes_total, designs, record_fields
    ))
    panel = SweepResult(
        "arithmetic, all fields projected, 100% selected", "record size (8B)"
    )
    for fields in record_fields:
        x = str(fields)
        point: Dict[str, float] = {
            design: run.speedup((design, x), ("baseline", x))
            for design in designs
        }
        point["ideal"] = 1.0  # row store is ideal at 100%/100%
        panel.points[fields] = point
    return panel


@dataclass
class Figure15Result:
    """The selected panels, keyed ``a``..``i`` in selection order."""

    panels: Dict[str, SweepResult]

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure15",
            "panels": {
                key: panel.payload() for key, panel in self.panels.items()
            },
        }

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels.values())


def run_figure15(
    n_ta: int = 512,
    designs: Sequence[str] = FIG15_DESIGNS,
    engine: Optional[SweepEngine] = None,
    panels: Optional[Sequence[str]] = None,
) -> Figure15Result:
    """The ``panels`` of Figure 15 (``None``: all nine, at a reduced sweep
    density -- each point is a full simulation of four designs).  Only the
    selected panels are built and simulated.  One engine runs them all,
    so a single ``--jobs``/cache setting covers the whole figure."""
    engine = engine or SweepEngine()
    runners = {
        "a": lambda: run_selectivity_sweep(8, n_ta, designs, engine=engine),
        "b": lambda: run_selectivity_sweep(64, n_ta, designs, engine=engine),
        "c": lambda: run_selectivity_sweep(128, n_ta, designs,
                                           engine=engine),
        "d": lambda: run_projectivity_sweep(0.10, n_ta, designs,
                                            engine=engine),
        "e": lambda: run_projectivity_sweep(0.50, n_ta, designs,
                                            engine=engine),
        "f": lambda: run_projectivity_sweep(1.00, n_ta, designs,
                                            engine=engine),
        "g": lambda: run_selectivity_sweep(8, n_ta, designs, aggregate=True,
                                           engine=engine),
        "h": lambda: run_projectivity_sweep(1.00, n_ta, designs,
                                            aggregate=True, engine=engine),
        "i": lambda: run_record_size_sweep(designs=designs, engine=engine),
    }
    keys = list(dict.fromkeys(runners if panels is None else panels))
    for key in keys:
        if key not in runners:
            raise UsageError(
                f"unknown panel {key!r} (have {sorted(runners)})"
            )
    return Figure15Result({key: runners[key]() for key in keys})
