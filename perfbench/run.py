"""Host-performance benchmark of the SAM reproduction.

Usage::

    python3 perfbench/run.py --workload fig12-queries --seed 42 \\
        --seconds 40 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh interpreter (``bench_pass.py``), so set-up time is what a user pays
on every CLI call.

``--trace 0`` runs passes until ``--seconds`` would be exceeded (at least
three, so a point's median over them is not at the mercy of one pass)
and reports the end-to-end metrics as medians over the passes; a point's
latency is its median over the passes, and set-up time is the median of
at least seven fresh starts.  Times are reference seconds
(:mod:`speed`): host time scaled by the speed that probes run around the
work measured, so a slow phase of the shared host does not read as a
slower program.  ``--trace 1``
runs one untraced pass and one traced pass, requires their exact-repeat
counts (simulated cycles, DRAM commands, speed-ups) to be identical, and
reports the per-layer metrics of the traced pass (the listing also shows
the untraced pass end to end); its spans are written to
``perfbench/out/<workload>-seed<seed>.spans.npz``.

Every output is checked: a wrong answer, checker report, oracle mismatch
or impure warm replay counts as a failed operation.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit, and ``perfbench/out/<workload>-seed<seed>
.json`` keeps the full record (counts, tail percentile, accuracy).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics as spec  # noqa: E402
from speed import probe, reference_seconds  # noqa: E402

#: a run still busy this long after it started kills its pass and fails
RUN_TIMEOUT_S = 170

#: fresh starts behind the setup_s median
SETUP_SAMPLES = 7

#: passes a timed run makes even if they take longer than ``--seconds``
MIN_PASSES = 3

#: percentiles tried for the tail, highest first
_TAILS = (99, 95, 90, 75, 50)


class PassFailed(RuntimeError):
    """A pass crashed or timed out: the run reports no result."""


def _spawn(workload: str, seed: int, trace: int, deadline: float,
           setup_only: bool = False, spans: "Path | None" = None) -> dict:
    """Run one pass in a fresh interpreter; timestamps share its clock.
    The pass is killed if it is still running at ``deadline``."""
    cmd = [sys.executable, str(HERE / "bench_pass.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    before = (time.monotonic(), probe())
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{workload} run exceeded {RUN_TIMEOUT_S}s")
    ended = time.monotonic()
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(stdout.decode().splitlines()[-1])
    own = result["probes"]
    samples = [before, *own, *result["worker_probes"]]
    result["raw_wall_s"] = ended - started
    result["wall_s"] = reference_seconds(samples, started, ended, own)
    result["setup_s"] = reference_seconds(
        samples, started, result["setup_end"], own)
    if not setup_only:
        result["raw_work_s"] = result["work_end"] - started
        result["work_s"] = reference_seconds(
            samples, started, result["work_end"], own)
    return result


def _percentile(values, p: float) -> float:
    """Percentile, interpolated linearly between the two nearest ranks
    (a nearest-rank value jumps whenever noise reorders the points next
    to it)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    for p in _TAILS:
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50


def end_to_end(passes, setups=()) -> dict:
    """The end-to-end metrics of a run: medians over its passes, and
    point latencies from each point's median over the passes."""
    median = statistics.median
    points = [median(ms) for ms in zip(*(p["point_ms"] for p in passes))]
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median([*setups, *(p["setup_s"] for p in passes)]),
        "sim_cycles_per_s": median(
            p["sim_cycles"] / (p["wall_s"] - p["setup_s"]) for p in passes),
        "point_p50_ms": _percentile(points, 50),
        "point_tail_ms": _percentile(points, tail_percentile(len(points))),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def serial_work_s(p: dict) -> float:
    """A pass's work time with its sweep's points laid end to end
    (reference seconds)."""
    if p["workers"] == 1:
        return p["work_s"]
    outside = 1.0 - p["sweep_wall_s"] / p["raw_work_s"]
    return p["work_s"] * outside + sum(p["point_ms"]) / 1e3


def pool_idle_frac(p: dict) -> float:
    """Share of the workers' sweep time spent on neither a point nor a
    speed probe."""
    busy = (sum(p["point_raw_ms"]) / 1e3
            + sum(d for _t, d in p["worker_probes"]))
    return 1.0 - busy / (p["workers"] * p["sweep_wall_s"])


def timed_run(workload: str, seed: int, seconds: int,
              deadline: float) -> dict:
    started = time.monotonic()
    setups = [_spawn(workload, seed, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        passes.append(_spawn(workload, seed, 0, deadline))
        elapsed = time.monotonic() - started
        if (len(passes) >= MIN_PASSES and elapsed
                + max(p["raw_wall_s"] for p in passes) > seconds):
            break
    return {"passes": passes, "values": end_to_end(passes, setups)}


def traced_run(workload: str, seed: int, deadline: float) -> dict:
    timed = _spawn(workload, seed, 0, deadline)
    spans = OUT / f"{workload}-seed{seed}.spans.npz"
    traced = _spawn(workload, seed, 1, deadline, spans=spans)
    values = dict(traced["layers"])
    values["exp.pool_idle_frac"] = pool_idle_frac(timed)
    values["trace.overhead_frac"] = (
        traced["work_s"] / serial_work_s(timed) - 1.0)
    return {
        "passes": [timed, traced],
        "values": values,
        "timed": end_to_end([timed]),
        "span_coverage": traced["span_self_sum_s"] / traced["raw_work_s"],
        "spans": str(spans.relative_to(ROOT)),
    }


def check_repeats(passes) -> list:
    """Every pass of one seed must reproduce the first pass's counts."""
    errors = []
    first = passes[0]["counts"]
    for p in passes[1:]:
        for name in sorted(set(first) | set(p["counts"])):
            if first.get(name) != p["counts"].get(name):
                kind = "traced" if p["traced"] else "timed"
                errors.append(f"exact-repeat counts {name!r} of a {kind} "
                              f"pass differ from the first pass")
    return errors


def print_report(record: dict, run: dict, table) -> None:
    """Every metric by name with its unit, then the accuracy table."""
    print(f"{record['workload']} seed={record['seed']} "
          f"passes={record['passes']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    tail = record["point_tail"]
    rows = list(table)
    values = dict(run["values"])
    if "timed" in run:
        # a traced run also shows its one timed pass, end to end
        rows = [(n, u) for n, u, *_ in spec.END_TO_END] + rows
        values.update(run["timed"])
    for name, unit in rows:
        note = ""
        if name == "point_tail_ms":
            note = f"  (p{tail['percentile']} of {tail['samples']} samples)"
        print(f"  {name:36s} {values[name]:>16.6g} {unit}{note}")
    if "span_coverage" in run:
        print(f"  span self times / traced wall      "
              f"{run['span_coverage']:>16.4f}")
    accuracy = record["accuracy"]
    if accuracy:
        print("  Figure 12 geomean speed-up vs the paper, "
              f"{accuracy['tables']}:")
        for design, row in accuracy["designs"].items():
            print(f"    {design:12s}" + "".join(
                f"  {group} {row[group]['sim']:.2f}x (paper "
                f"{row[group]['paper']:.2f}x, {row[group]['diff']:+.2f})"
                for group in ("Q", "Qs")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-performance benchmark of the SAM reproduction.")
    parser.add_argument("--workload", required=True, choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # byte-compile first, so no pass pays for compilation in its set-up
    compileall.compile_dir(ROOT / "src" / "repro", quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)

    try:
        if args.trace:
            run = traced_run(args.workload, args.seed, deadline)
            table = [(n, u) for n, u, *_ in spec.PER_LAYER]
        else:
            run = timed_run(args.workload, args.seed, args.seconds,
                            deadline)
            table = [(n, u) for n, u, *_ in spec.END_TO_END]
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = run["passes"]
    errors = check_repeats(passes)
    failed = sum(p["failed"] for p in passes) + len(errors)
    for p in passes:
        errors += p["errors"]
    attempted = sum(p["attempted"] for p in passes)
    points = len(passes[0]["point_ms"])
    tail = tail_percentile(points)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "errors": errors, "metrics": run["values"],
        "point_tail": {"percentile": tail, "samples": points,
                       "beyond": points * (100 - tail) // 100},
        "counts": passes[0]["counts"],
        "accuracy": passes[0].get("accuracy"),
    }
    for key in ("span_coverage", "spans", "timed"):
        if key in run:
            record[key] = run[key]
    (OUT / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1))

    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print_report(record, run, table)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": run["values"][name], "unit": unit}
            for name, unit in table
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
