"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON object it
prints.  A pass sets up (imports ``repro``, builds the grid or case
stream, digests the sources), stamps the end of set-up, runs the workload
through the public ``repro`` API, checks every output and reports
latencies, simulated counts and the exact-repeat counts.  Speed probes
(:mod:`speed`) run right after set-up, before points and cases, and at
the end, so ``run.py`` can turn host times into reference seconds; point
and case latencies come out in reference milliseconds.  With
``--trace 1`` the layer hooks of :mod:`tracer` are installed first and
the pass also reports per-layer totals and writes its spans.

Usage: ``python3 perfbench/bench_pass.py --workload NAME --seed N
--trace 0|1 [--setup-only] [--spans PATH]``; result caches live under
``perfbench/out/`` while the pass runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pickle
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics as spec  # noqa: E402
from speed import SpeedLog, reference_seconds  # noqa: E402
from tracer import DISPATCH_SPANS, Hooks, Tracer  # noqa: E402

#: CommandStats fields that count one issued DRAM command each
_COMMAND_FIELDS = ("acts", "col_acts", "reads", "writes", "precharges",
                   "refreshes", "mode_switches", "sa_sels")

#: RunResult.metrics summed over the points of a sweep
_MODEL_METRICS = ("core.retries", "core.hits", "core.misses", "sys.wb_polls",
                  "sys.wb_polls_futile", "controller.queue_full_rejects")


def _commands(run_metrics: dict) -> int:
    return int(sum(run_metrics.get(f"dram.{f}", 0) for f in _COMMAND_FIELDS))


def _fields(payload) -> list:
    """A payload's fields as pickle bytes.  (Pickling the whole object is
    not canonical: a round trip can change which objects it shares.)"""
    return [pickle.dumps(getattr(payload, f.name))
            for f in dataclasses.fields(payload)]


class Probes:
    """Speed probes of a pass and the latency of each point or case.

    :meth:`timed` probes when due and times one point or case; the sweep
    engine's public ``execute_point`` is rebound to go through it, so a
    forked pool worker (which inherits the rebinding) probes and times its
    own points and sends them back through a queue.  In a traced pass a
    probe's time lands in the self time of the span around the point.
    """

    def __init__(self) -> None:
        self.log = SpeedLog()
        #: key -> (monotonic start, raw seconds)
        self.latency: dict = {}
        self.worker_samples: list = []
        self._pid = os.getpid()
        self._queue = None

    def install(self) -> "Probes":
        """Time every sweep point, in this process or a pool worker."""
        import multiprocessing

        from repro.exp import engine

        self._queue = multiprocessing.get_context("fork").SimpleQueue()
        execute_point = engine.execute_point
        engine.execute_point = lambda point: self.timed(
            point.key, execute_point, point)
        return self

    def timed(self, key, fn, *args):
        known = len(self.log.samples)
        self.log.maybe_probe()
        began = time.monotonic()
        result = fn(*args)
        timed = (began, time.monotonic() - began)
        if os.getpid() == self._pid:
            self.latency[key] = timed
        else:
            # read only after the sweep: a grid's records (a few hundred
            # bytes per point) fit in the pipe, so no worker blocks here
            self._queue.put((key, timed, self.log.samples[known:]))
        return result

    def collect(self) -> None:
        """Take in what the pool workers sent."""
        while self._queue is not None and not self._queue.empty():
            key, timed, samples = self._queue.get()
            self.latency[key] = timed
            self.worker_samples += samples

    def latencies_ms(self, keys) -> tuple:
        """(reference, raw) milliseconds of ``keys``, in their order."""
        self.collect()
        samples = self.log.samples + self.worker_samples
        timed = [self.latency[key] for key in keys]
        return ([reference_seconds(samples, began, began + raw) * 1e3
                 for began, raw in timed],
                [raw * 1e3 for _began, raw in timed])


class Pass:
    """What one pass measured; serialised as the pass's JSON output."""

    def __init__(self, workload: str, seed: int, tracer) -> None:
        self.tracer = tracer
        self.probes = Probes()
        self.out = {
            "workload": workload, "seed": seed, "traced": tracer is not None,
            "attempted": 0, "failed": 0, "errors": [], "point_ms": [],
            "point_raw_ms": [], "sim_cycles": 0, "workers": 1,
            "sweep_wall_s": 0.0, "counts": {},
            "model": {name: 0 for name in _MODEL_METRICS},
        }

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def fail(self, message: str, operations: int = 1) -> None:
        self.out["failed"] += operations
        if len(self.out["errors"]) < 20:
            self.out["errors"].append(message)

    def add_points(self, run) -> None:
        """Per-point latency, cycles and model counts of a cold sweep."""
        self.out["point_ms"], self.out["point_raw_ms"] = (
            self.probes.latencies_ms(run.spec.keys()))
        self.out["sweep_wall_s"] = run.wall_s
        self.out["workers"] = run.jobs
        model = self.out["model"]
        points = {}
        for key, result in run.results.items():
            m = result.metrics
            for name in _MODEL_METRICS:
                model[name] += int(m.get(name, 0))
            points["/".join(key)] = [result.cycles, _commands(m)]
            self.out["sim_cycles"] += result.cycles
        self.out["counts"]["points"] = points


# --------------------------------------------------------------------------
# fig12-queries
# --------------------------------------------------------------------------

def _gather_factor(design: str):
    """The paper's gather factor, for designs with stride hardware."""
    from repro.core.registry import make_scheme

    return 8 if make_scheme(design).supports_stride else None


def setup_fig12(seed: int, scratch: Path):
    from repro.core.registry import FIGURE12_DESIGNS
    from repro.exp import (
        ExperimentSpec, ResultCache, SweepEngine, SweepPoint, source_digest,
        standard_tables,
    )
    from repro.imdb.queries import q_queries, qs_queries
    from repro.workloads import QueryWorkload

    tables = standard_tables(spec.FIG12_TA_RECORDS, spec.FIG12_TB_RECORDS,
                             seed)
    queries = q_queries() + qs_queries()
    points = []
    for design in ("baseline",) + tuple(FIGURE12_DESIGNS):
        points += [
            SweepPoint(key=(design, q.name), scheme=design,
                       workload=QueryWorkload(query=q, tables=tables),
                       gather_factor=_gather_factor(design))
            for q in queries
        ]
    # the paper's ideal: a row store for row-preferring queries, a
    # column store for the rest
    points += [
        SweepPoint(key=("ideal", q.name),
                   scheme="baseline" if q.prefers == "row" else
                   "column-store",
                   workload=QueryWorkload(query=q, tables=tables))
        for q in queries
    ]
    grid = ExperimentSpec("figure12", tuple(points))
    cache_dir = Path(tempfile.mkdtemp(prefix="fig12-cache-", dir=scratch))
    source_digest()
    return {
        "grid": grid,
        "cache_dir": cache_dir,
        "engine": lambda: SweepEngine(cache=ResultCache(cache_dir)),
        "q": [q.name for q in q_queries()],
        "qs": [q.name for q in qs_queries()],
        "series": ("baseline",) + tuple(FIGURE12_DESIGNS) + ("ideal",),
    }


def run_fig12(state, bench: Pass) -> None:
    from repro.workloads import geomean

    grid, cache_dir = state["grid"], state["cache_dir"]
    try:
        cold = state["engine"]().run(grid)
        bench.out["attempted"] += len(grid)
        bench.add_points(cold)
        bench.out["cache_bytes"] = sum(
            p.stat().st_size for p in cache_dir.glob("*.pkl"))
        with bench.span("exp.replay"):
            warm = state["engine"]().run(grid)
        bench.out["attempted"] += len(grid)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with bench.span("bench.check"):
        if warm.executed:
            bench.fail(f"warm replay executed {warm.executed} points",
                       warm.executed)
        for key in grid.keys():
            if _fields(cold[key]) != _fields(warm[key]):
                bench.fail(f"warm replay of {'/'.join(key)} differs")
        queries = state["q"] + state["qs"]
        for name in queries:
            expected = cold[("baseline", name)].result
            for series in state["series"][1:]:
                if cold[(series, name)].result != expected:
                    bench.fail(f"{series}/{name} answer differs from "
                               f"baseline")
        speedups = {
            series: {q: cold.speedup((series, q), ("baseline", q))
                     for q in queries}
            for series in state["series"][1:]
        }
        gmeans = {
            series: [geomean(s[q] for q in state["q"]),
                     geomean(s[q] for q in state["qs"])]
            for series, s in speedups.items()
        }
        bench.out["counts"]["speedups"] = speedups
        bench.out["counts"]["gmeans"] = gmeans
        bench.out["accuracy"] = {
            "tables": (f"Ta={spec.FIG12_TA_RECORDS}, "
                       f"Tb={spec.FIG12_TB_RECORDS} records "
                       f"(the paper uses 10M)"),
            "designs": {
                design: {
                    "Q": {"sim": gmeans[design][0], "paper": paper[0],
                          "diff": gmeans[design][0] - paper[0]},
                    "Qs": {"sim": gmeans[design][1], "paper": paper[1],
                           "diff": gmeans[design][1] - paper[1]},
                }
                for design, paper in spec.PAPER_FIG12.items()
            },
        }


# --------------------------------------------------------------------------
# kernels-rw
# --------------------------------------------------------------------------

def setup_kernels(seed: int, scratch: Path, jobs: int):
    from repro.exp import (
        ExperimentSpec, ResultCache, SweepEngine, SweepPoint, source_digest,
    )
    from repro.harness.kernels import (
        FIXED_KERNELS, STRIDE_FAMILIES, STRIDE_POINTS, STRIDE_RECORDS,
    )
    from repro.workloads import KernelWorkload

    names = [f"{family}[n={STRIDE_RECORDS},stride={stride}]"
             for family in STRIDE_FAMILIES for stride in STRIDE_POINTS]
    kernels = [KernelWorkload.from_spec(name, seed=seed)
               for name in names + list(FIXED_KERNELS)]
    designs = ("baseline", "SAM-en", "masa")
    points = [
        SweepPoint(key=(design, k.name), kind="kernel", scheme=design,
                   workload=k, check=True,
                   gather_factor=_gather_factor(design))
        for design in designs for k in kernels
    ]
    cache_dir = Path(tempfile.mkdtemp(prefix="kernels-cache-", dir=scratch))
    source_digest()
    return {
        "grid": ExperimentSpec("kernels", tuple(points)),
        "cache_dir": cache_dir,
        "engine": SweepEngine(jobs=jobs, cache=ResultCache(cache_dir)),
        "kernels": [k.name for k in kernels],
        "designs": designs,
    }


def run_kernels(state, bench: Pass) -> None:
    from repro.check import OracleError, ProtocolError

    grid, cache_dir = state["grid"], state["cache_dir"]
    bench.out["attempted"] += len(grid)
    try:
        run = state["engine"].run(grid)
        bench.out["cache_bytes"] = sum(
            p.stat().st_size for p in cache_dir.glob("*.pkl"))
    except (ProtocolError, OracleError) as exc:
        bench.fail(f"kernel sweep aborted: {exc!r}", len(grid))
        return
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    bench.add_points(run)
    with bench.span("bench.check"):
        for key, result in run.results.items():
            reports = sum(result.metrics.get(name, 0) for name in (
                "check.violations", "check.oracle_mismatches"))
            if reports:
                bench.fail(f"{'/'.join(key)}: {reports} checker reports")
        speedups = {}
        for kernel in state["kernels"]:
            expected = run[("baseline", kernel)].result
            for design in state["designs"][1:]:
                if run[(design, kernel)].result != expected:
                    bench.fail(f"{design}/{kernel} result digest differs")
                speedups.setdefault(design, {})[kernel] = run.speedup(
                    (design, kernel), ("baseline", kernel))
        bench.out["counts"]["speedups"] = speedups


# --------------------------------------------------------------------------
# fuzz-checked
# --------------------------------------------------------------------------

def setup_fuzz():
    from repro.check import fuzz

    return {"fuzz": fuzz}


def run_fuzz(state, bench: Pass, seed: int) -> None:
    fuzz = state["fuzz"]
    cases = {}

    # the schemes take turns, so every seed runs each the same number of
    # times (drawn at random, one scheme's share of a seed's cases would
    # move the latency tail, which its cases dominate)
    schemes = fuzz.DEFAULT_SCHEMES

    def generate_and_run(index):
        with bench.span("check.fuzz.generate"):
            case = fuzz.generate_case(
                seed, index, schemes=(schemes[index % len(schemes)],))
        return case, fuzz.run_case(case)

    started = time.perf_counter()
    for index in range(spec.FUZZ_CASES):
        case, result = bench.probes.timed(index, generate_and_run, index)
        bench.out["attempted"] += 1
        bench.out["sim_cycles"] += result.cycles
        cases[str(index)] = [result.cycles, result.commands,
                             result.submitted, case.scheme]
        if result.failed:
            bench.fail(f"{case.describe()}: {result.signature()}")
    bench.out["sweep_wall_s"] = time.perf_counter() - started
    bench.out["point_ms"], bench.out["point_raw_ms"] = (
        bench.probes.latencies_ms(range(spec.FUZZ_CASES)))
    bench.out["counts"]["points"] = cases


# --------------------------------------------------------------------------
# per-layer totals (traced pass)
# --------------------------------------------------------------------------

def layer_totals(tracer: Tracer, hooks: Hooks, bench: Pass) -> dict:
    """Per-layer metrics measurable inside the traced pass."""
    spans = tracer.totals()

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    out = bench.out
    model = out["model"]
    dispatched = sum(count(name) for name in DISPATCH_SPANS)
    cycles = out["sim_cycles"]
    commands = sum(c[1] for c in out["counts"]["points"].values())
    stats = hooks.controller_stats
    cas = sum(s.row_hits for s in stats)
    acts = sum(s.row_misses for s in stats)
    wakes = count("dram.controller.wake")
    hits, misses = model["core.hits"], model["core.misses"]
    return {
        "kernel.events": dispatched,
        "kernel.events_per_cycle": ratio(dispatched, cycles),
        "kernel.dispatch_self_s": own("kernel.dispatch"),
        "dram.controller.wakes": wakes,
        "dram.controller.wake_self_s": own("dram.controller.wake"),
        "dram.controller.commands_per_wake": ratio(commands, wakes),
        "dram.controller.submits": count("dram.controller.submit"),
        "dram.controller.submit_self_s": own("dram.controller.submit"),
        "dram.controller.queue_full_rejects":
            model["controller.queue_full_rejects"],
        "sim.cycles": cycles,
        "dram.commands": commands,
        "dram.row_hit_rate": ratio(cas - acts, cas),
        "cpu.core.advances": count("cpu.core.advance"),
        "cpu.core.advance_self_s": own("cpu.core.advance"),
        "cpu.core.retries": model["core.retries"],
        "cache.calls": count("cache"),
        "cache.self_s": own("cache"),
        "cache.hit_rate": ratio(hits, hits + misses),
        "sim.system.issue_self_s": own("sim.system.issue"),
        "sim.system.callbacks": count("sim.system.callback"),
        "sim.system.callback_self_s": own("sim.system.callback"),
        "sim.system.wb_polls_futile_frac":
            ratio(model["sys.wb_polls_futile"], model["sys.wb_polls"]),
        "workloads.materialize_s": total("workloads.materialize"),
        "workloads.build_self_s": own("workloads.build"),
        "workloads.ops_built": hooks.ops_built,
        "imdb.plan_self_s": own("imdb.plan"),
        "imdb.lower_self_s": own("imdb.lower"),
        "core.make_scheme_s": total("core.make_scheme"),
        "sim.allocate_s": total("sim.allocate"),
        "obs.stalls.attribute_s": total("obs.stalls.attribute"),
        "power.evaluate_s": total("power.evaluate"),
        "check.protocol_self_s": own("check.protocol"),
        "check.commands_checked": count("check.protocol"),
        "check.oracle_self_s": own("check.oracle"),
        "ecc.codec_self_s": own("ecc.codec"),
        "dram.datapath_self_s": own("dram.datapath"),
        "check.fuzz.generate_s": total("check.fuzz.generate"),
        "exp.cache_get_s": total("exp.cache_get"),
        "exp.cache_put_s": total("exp.cache_put"),
        "exp.cache_bytes": out.get("cache_bytes", 0),
        "exp.digest_s": total("exp.digest"),
        "exp.replay_s": total("exp.replay"),
    }


# --------------------------------------------------------------------------

def run_pass(args, bench: Pass, scratch: Path):
    """Set up, stamp the end of set-up, run; returns the installed hooks
    of a traced pass that ran its workload."""
    tracer = bench.tracer
    with bench.span("bench.setup"):
        hooks = Hooks(tracer).install() if tracer is not None else None
        if args.workload == spec.FIG12:
            state = setup_fig12(args.seed, scratch)
        elif args.workload == spec.KERNELS:
            jobs = 1 if tracer is not None else spec.KERNEL_JOBS
            state = setup_kernels(args.seed, scratch, jobs)
        else:
            state = setup_fuzz()
        if args.workload in spec.SWEEPS:
            bench.probes.install()
    bench.out["setup_end"] = time.monotonic()
    bench.probes.log.maybe_probe(force=True)
    if args.setup_only:
        if "cache_dir" in state:
            shutil.rmtree(state["cache_dir"], ignore_errors=True)
        return None
    if args.workload == spec.FIG12:
        run_fig12(state, bench)
    elif args.workload == spec.KERNELS:
        run_kernels(state, bench)
    else:
        run_fuzz(state, bench, args.seed)
    return hooks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where the traced pass writes spans")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    bench = Pass(args.workload, args.seed, tracer)
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    with bench.span("bench.pass"):
        hooks = run_pass(args, bench, scratch)
    bench.out["work_end"] = time.monotonic()
    bench.probes.log.maybe_probe(force=True)
    bench.out["probes"] = bench.probes.log.samples
    bench.out["worker_probes"] = bench.probes.worker_samples

    if hooks is not None:
        hooks.remove()
        bench.out["layers"] = layer_totals(tracer, hooks, bench)
        bench.out["span_self_sum_s"] = sum(
            own for _n, _t, own in tracer.totals().values())
        bench.out["spans"] = len(tracer)
        if args.spans:
            tracer.save(args.spans)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    bench.out["peak_rss_mb"] = (usage + workers) / 1024.0
    print(json.dumps(bench.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
