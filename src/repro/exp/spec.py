"""Declarative experiment specifications.

A paper figure is a *grid* of independent simulations.  Instead of each
harness hand-rolling its own nested loops around the runner, it builds
an :class:`ExperimentSpec`: a named, ordered tuple of
:class:`SweepPoint` records, each describing one unit of work purely as
data -- scheme name, workload, config and overrides.  Because a point is
plain (frozen-dataclass) data, it can be

* pickled to a worker process (parallel execution),
* hashed to a stable content digest (result caching), and
* replayed bit-identically in any order (deterministic sweeps).

The work itself is a :class:`repro.workloads.Workload` -- a relational
query (:class:`~repro.workloads.QueryWorkload`) or a generated
micro-kernel (:class:`~repro.workloads.KernelWorkload`).  Workloads
describe their memory footprint as :class:`~repro.workloads.TableSpec`
*recipes* rather than materialized arrays: table data is a pure function
of ``(schema, n_records, seed)``, so workers rebuild it locally and the
spec stays tiny and hashable.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..core.registry import available_schemes, takes_gather_factor
# table recipes live with the workload IR now; re-exported here because
# they are part of the sweep-spec vocabulary (specs reference recipes)
from ..workloads.tables import TableSpec, build_tables, standard_tables
from ..sim.config import SystemConfig
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads import Workload

__all__ = [
    "POINT_KINDS",
    "ExperimentSpec",
    "SweepPoint",
    "TableSpec",
    "UsageError",
    "baseline_grid",
    "build_tables",
    "design_list",
    "standard_tables",
]


class UsageError(ValueError):
    """A sweep request that cannot be built: an unknown or repeated name,
    or a count below one.  Raised before any simulation; the CLI reports
    it as one stderr line and exit status 2."""


#: sweep-point kinds with a registered executor (see repro.exp.engine)
POINT_KINDS = ("query", "kernel", "reliability")

#: kinds executed through :func:`repro.sim.runner.run_workload`
WORKLOAD_KINDS = ("query", "kernel")


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work, described purely as data.

    ``key`` is the point's identity inside its spec -- a tuple of strings
    chosen by the spec builder (e.g. ``("SAM-en", "Q3")``) that result
    shapers use to look results back up.  ``kind`` selects the executor:
    ``"query"`` and ``"kernel"`` run the point's ``workload`` through
    :func:`repro.sim.runner.run_workload`, ``"reliability"`` runs a
    fault-injection campaign.  ``params`` carries kind-specific extras as
    a sorted tuple of pairs (kept hashable for caching).
    """

    key: Tuple[str, ...]
    kind: str = "query"
    scheme: Optional[str] = None
    workload: "Optional[Workload]" = None
    gather_factor: Optional[int] = None
    timing: Optional[str] = None  # base-timing preset override by name
    config: Optional[SystemConfig] = None
    max_events: Optional[int] = None
    #: run with the repro.check protocol checker + workload oracle
    #: attached (strict: a violation aborts the sweep); part of the cache
    #: digest, so checked and unchecked payloads never alias
    check: bool = False
    #: record a cycle-level timeline for this point (observability only:
    #: excluded from the cache digest, so flipping it neither invalidates
    #: cached results nor forks new cache entries -- a warm hit may
    #: therefore come back without ``timeline.*`` metrics; use
    #: ``--no-cache`` to force a recorded run)
    timeline: bool = False
    #: directory for the point's Chrome trace-event export (None keeps
    #: the timeline in metrics digests only); excluded from the digest
    timeline_dir: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("a sweep point needs a non-empty key")
        if self.kind not in POINT_KINDS:
            raise ValueError(
                f"unknown point kind {self.kind!r}; have {POINT_KINDS}"
            )
        if self.kind in WORKLOAD_KINDS:
            if self.scheme is None or self.workload is None:
                raise ValueError(
                    f"a {self.kind} point needs a scheme and a workload"
                )
            if self.workload.kind != self.kind:
                raise ValueError(
                    f"point kind {self.kind!r} does not match workload "
                    f"kind {self.workload.kind!r} "
                    f"({self.workload.name})"
                )
        elif self.scheme is None:
            raise ValueError(f"a {self.kind} point needs a scheme/design")

    def param(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)

    @property
    def label(self) -> str:
        return "/".join(self.key)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named grid of sweep points plus its normalization rule.

    ``normalize`` documents how shapers turn raw results into figure
    numbers (e.g. ``"divide by baseline cycles per query"``); the engine
    itself never normalizes -- it only guarantees that results come back
    keyed and ordered exactly like ``points``.  ``meta`` carries the
    lists the builder resolved (designs, queries, kernels) as
    ``(name, tuple)`` pairs, so the shaper reads them instead of working
    the defaults out again.
    """

    name: str
    points: Tuple[SweepPoint, ...]
    normalize: Optional[str] = None
    meta: Tuple[Tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        keys = [p.key for p in self.points]
        if len(set(keys)) != len(keys):
            seen: set = set()
            dup = next(k for k in keys if k in seen or seen.add(k))
            raise ValueError(f"duplicate sweep-point key {dup!r}")

    def __len__(self) -> int:
        return len(self.points)

    def keys(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(p.key for p in self.points)

    def point(self, key: Tuple[str, ...]) -> SweepPoint:
        for p in self.points:
            if p.key == key:
                return p
        raise KeyError(key)


def design_list(
    designs: Optional[Sequence[str]], default: Sequence[str]
) -> Tuple[str, ...]:
    """The designs a sweep compares against the baseline: ``designs``
    (``None`` means ``default``), each a registered scheme, none repeated.
    ``baseline`` is not accepted -- every sweep runs it as the reference.
    """
    names = tuple(default if designs is None else designs)
    known = [name for name in available_schemes() if name != "baseline"]
    for i, name in enumerate(names):
        if name == "baseline":
            raise UsageError(
                "design 'baseline' is the reference every sweep runs; "
                "do not list it"
            )
        if name not in known:
            close = difflib.get_close_matches(name, known)
            hint = f"; did you mean {' or '.join(close)}?" if close else ""
            raise UsageError(
                f"unknown design {name!r}{hint} (known: {' '.join(known)})"
            )
        if name in names[:i]:
            raise UsageError(f"design {name!r} is listed twice")
    return names


def baseline_grid(
    designs: Sequence[str],
    workloads: Sequence["Workload"],
    gather_factor: Optional[int] = None,
) -> Tuple[SweepPoint, ...]:
    """Baseline plus every design, per workload: one point keyed
    ``(series, workload.name)`` each, the baseline's first.  Designs with
    stride hardware run at ``gather_factor``; the rest take none."""
    return tuple(
        SweepPoint(
            key=(series, w.name), kind=w.kind, scheme=series, workload=w,
            gather_factor=(
                gather_factor if takes_gather_factor(series) else None
            ),
        )
        for series in ("baseline",) + tuple(designs)
        for w in workloads
    )
