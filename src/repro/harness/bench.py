"""Perf-baseline bench harness (host performance, not paper numbers).

``repro bench`` runs a pinned set of (scheme, workload) kernels -- SQL
queries by name, generated micro-kernels by their
:meth:`~repro.workloads.KernelWorkload.from_spec` string -- and
measures how fast the *simulator itself* executes them: host wall time,
simulated cycles per host second, and memory operations per host second
(all read from the span profiler every run carries).  The result is a
``BENCH_<label>.json`` at the repo root -- the committed ``BENCH_seed``
baseline gives every later PR (most importantly the event-driven kernel
refactor) a perf trajectory to compare against via
``repro bench --compare``.

Simulated cycle counts are deterministic, so the compare mode also
cross-checks them: a cycle drift is not a perf regression but a behavior
change, and is reported separately.  Only the wall-time ratio gates
(with a generous threshold -- CI machines vary).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..imdb.queries import by_name
from ..obs import Observation
from ..obs.artifacts import git_describe, iso_utc
from ..sim.runner import run_query
from ..workloads import make_tables

#: bump when the bench payload layout changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: pinned kernel set: representative schemes x workload shapes (gathers
#: on a row store, a pure column store, SAM on both friendly and hostile
#: queries, the column-wise-activation design, the subarray-parallel
#: bank model, and a generated strided micro-kernel on both sides of the
#: stride-hardware divide).  A workload is a query name or a
#: ``KernelWorkload.from_spec`` string.
BENCH_KERNELS: Tuple[Tuple[str, str], ...] = (
    ("baseline", "Q3"),
    ("column-store", "Q1"),
    ("SAM-en", "Q3"),
    ("SAM-en", "Qs1"),
    ("SAM-sub", "Q1"),
    ("masa", "Q3"),
    ("baseline", "strided_read[stride=256]"),
    ("SAM-en", "strided_read[stride=256]"),
)

#: default wall-time regression gate (CI machines vary; 2x is meant to
#: catch "accidentally quadratic", not noise)
DEFAULT_THRESHOLD = 2.0


def _run_one(scheme: str, workload: str, tables, queries, observe=None):
    """Run one bench row: a query by name, else a kernel by spec."""
    if workload in queries:
        return run_query(scheme, queries[workload], tables,
                         observe=observe)
    from ..sim.runner import run_workload
    from ..workloads import KernelWorkload

    return run_workload(KernelWorkload.from_spec(workload), scheme,
                        observe=observe)


def _sim_wall_s(result) -> float:
    """Host seconds spent in the simulation phases (execute +
    flush_drain), from the run's span tree."""
    root = result.spans
    if root is None:
        return 0.0
    total = 0.0
    for child in root.children:
        if child.name in ("execute", "flush_drain"):
            total += child.wall_s
    return total


def run_bench(
    label: str,
    n_ta: int = 512,
    n_tb: int = 1024,
    repeats: int = 2,
    kernels: Sequence[Tuple[str, str]] = BENCH_KERNELS,
) -> Dict[str, object]:
    """Run the pinned kernels; returns the bench payload (best-of-N
    wall times -- the min is the least-noisy host estimate)."""
    tables = make_tables(n_ta, n_tb)
    queries = by_name()
    rows: List[Dict[str, object]] = []
    for scheme, workload in kernels:
        best: Optional[Dict[str, object]] = None
        for _ in range(max(1, repeats)):
            obs = Observation()
            result = _run_one(scheme, workload, tables, queries,
                              observe=obs)
            wall_s = result.spans.wall_s if result.spans else 0.0
            sim_wall_s = _sim_wall_s(result)
            mem_ops = (
                result.core_stats.get("loads", 0)
                + result.core_stats.get("stores", 0)
                + result.core_stats.get("gathers", 0)
            )
            events = int(result.metrics.get("sim.events", 0))
            row = {
                "kernel": [scheme, workload],
                "wall_s": wall_s,
                "sim_wall_s": sim_wall_s,
                "cycles": result.cycles,
                "cycles_per_sec": (
                    result.cycles / sim_wall_s if sim_wall_s else 0.0
                ),
                "mem_ops": mem_ops,
                "ops_per_sec": mem_ops / sim_wall_s if sim_wall_s else 0.0,
                # wake-up efficiency: executed kernel events, and events
                # per simulated cycle (deterministic, like cycles -- the
                # fast scheduler keeps it identical to the reference by
                # construction, so drift here is a behavior change)
                "events": events,
                "events_per_cycle": (
                    events / result.cycles if result.cycles else 0.0
                ),
                "events_per_sec": (
                    events / sim_wall_s if sim_wall_s else 0.0
                ),
            }
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        rows.append(best)
    total_wall = sum(r["wall_s"] for r in rows)
    total_cycles = sum(r["cycles"] for r in rows)
    total_sim_wall = sum(r["sim_wall_s"] for r in rows)
    total_events = sum(r["events"] for r in rows)
    created_unix = time.time()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "label": label,
        "created_unix": created_unix,
        "created": iso_utc(created_unix),
        "git": git_describe(),
        "tables": {"ta": n_ta, "tb": n_tb},
        "repeats": repeats,
        "kernels": rows,
        "totals": {
            "wall_s": total_wall,
            "sim_wall_s": total_sim_wall,
            "cycles": total_cycles,
            "cycles_per_sec": (
                total_cycles / total_sim_wall if total_sim_wall else 0.0
            ),
            "events": total_events,
            "events_per_cycle": (
                total_events / total_cycles if total_cycles else 0.0
            ),
            "events_per_sec": (
                total_events / total_sim_wall if total_sim_wall else 0.0
            ),
        },
    }


def profile_bench(
    n_ta: int = 512,
    n_tb: int = 1024,
    kernels: Sequence[Tuple[str, str]] = BENCH_KERNELS,
    top_n: int = 30,
) -> Tuple[Dict[str, object], str]:
    """cProfile one pass over the pinned kernels.

    Returns ``(payload, text)``: the payload is a JSON-able dict with the
    top-N functions by tottime (for ``ArtifactWriter``), the text is the
    classic pstats table for the console.  Timing under the profiler is
    skewed, so this never writes a ``BENCH_*`` payload.
    """
    import cProfile
    import io
    import pstats

    tables = make_tables(n_ta, n_tb)
    queries = by_name()
    profiler = cProfile.Profile()
    profiler.enable()
    for scheme, workload in kernels:
        _run_one(scheme, workload, tables, queries)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(top_n)
    rows: List[Dict[str, object]] = []
    for (filename, lineno, func), entry in stats.stats.items():
        cc, nc, tt, ct = entry[:4]
        rows.append({
            "function": func,
            "file": filename,
            "line": lineno,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": tt,
            "cumtime_s": ct,
        })
    rows.sort(key=lambda r: r["tottime_s"], reverse=True)
    created_unix = time.time()
    payload = {
        "kind": "bench-profile",
        "created_unix": created_unix,
        "created": iso_utc(created_unix),
        "git": git_describe(),
        "tables": {"ta": n_ta, "tb": n_tb},
        "kernels": [list(k) for k in kernels],
        "top_by_tottime": rows[:top_n],
    }
    return payload, stream.getvalue()


def write_bench(payload: Dict[str, object],
                out_dir: "str | Path" = ".") -> Path:
    """Write ``BENCH_<label>.json`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{payload['label']}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench(path: "str | Path") -> Dict[str, object]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("kind") != "bench":
        raise ValueError(f"{path} is not a bench payload")
    return payload


def compare_bench(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    strict_cycles: bool = False,
) -> Tuple[List[str], List[str]]:
    """Compare two bench payloads.

    Returns ``(regressions, notes)``: regressions are wall-time ratios
    beyond ``threshold`` (these should fail CI); notes are non-gating
    observations (cycle drifts = behavior changes, missing kernels).
    With ``strict_cycles`` a cycle drift *is* a regression -- the ratchet
    mode for perf refactors that promise identical simulated behavior.
    """
    regressions: List[str] = []
    notes: List[str] = []
    base_rows = {
        tuple(r["kernel"]): r for r in baseline.get("kernels", [])
    }
    for row in current.get("kernels", []):
        key = tuple(row["kernel"])
        base = base_rows.pop(key, None)
        name = "/".join(key)
        if base is None:
            notes.append(f"{name}: no baseline entry")
            continue
        base_wall = base.get("wall_s") or 0.0
        if base_wall > 0:
            ratio = row["wall_s"] / base_wall
            if ratio > threshold:
                regressions.append(
                    f"{name}: wall {row['wall_s']:.3f}s vs baseline "
                    f"{base_wall:.3f}s ({ratio:.2f}x > {threshold:.2f}x)"
                )
        if base.get("cycles") != row.get("cycles"):
            drift = (
                f"{name}: simulated cycles changed "
                f"{base.get('cycles')} -> {row.get('cycles')} "
            )
            if strict_cycles:
                regressions.append(
                    drift + "(strict-cycles: drift gates the build)"
                )
            else:
                notes.append(
                    drift + "(behavior change, not a perf regression)"
                )
        # events are deterministic like cycles; older baselines predate
        # the field, so only compare when both payloads carry it
        if (
            base.get("events") is not None
            and row.get("events") is not None
            and base["events"] != row["events"]
        ):
            notes.append(
                f"{name}: executed events changed "
                f"{base['events']} -> {row['events']} "
                f"(wakeup-schedule change, not a perf regression)"
            )
    for key in base_rows:
        notes.append(f"{'/'.join(key)}: kernel missing from current run")
    return regressions, notes


def render_bench(payload: Dict[str, object]) -> str:
    """Terminal table for one bench payload."""
    rows = payload.get("kernels", [])
    width = max(
        [24] + [len("/".join(r["kernel"])) + 2 for r in rows]
    )
    lines = [
        f"bench {payload['label']} "
        f"(git {payload.get('git') or '?'}, {payload.get('created', '?')})",
        f"{'kernel':<{width}s}   wall_s   Mcycles/s     kops/s"
        "    cycles  ev/cyc",
    ]
    for row in rows:
        name = "/".join(row["kernel"])
        lines.append(
            f"{name:<{width}s}{row['wall_s']:>9.3f}"
            f"{row['cycles_per_sec'] / 1e6:>12.2f}"
            f"{row['ops_per_sec'] / 1e3:>11.1f}"
            f"{row['cycles']:>10d}"
            f"{row.get('events_per_cycle', 0.0):>8.3f}"
        )
    totals = payload.get("totals", {})
    lines.append(
        f"{'total':<{width}s}{totals.get('wall_s', 0.0):>9.3f}"
        f"{totals.get('cycles_per_sec', 0.0) / 1e6:>12.2f}"
        f"{'':>11s}{totals.get('cycles', 0):>10d}"
        f"{totals.get('events_per_cycle', 0.0):>8.3f}"
    )
    return "\n".join(lines)
