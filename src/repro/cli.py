"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's artefacts:

* ``figure12`` / ``figure13`` / ``figure14a`` / ``figure14b`` /
  ``figure14c`` / ``figure15`` -- regenerate an evaluation figure;
* ``salp``        -- subarray-level-parallelism interaction sweep
  (SALP-1/SALP-2/MASA vs SAM-en and the composed SAM-en+masa design);
* ``kernels``     -- micro-kernel stride sweep over the generated
  workload families (stream/strided/PolyBench) on baseline vs SAM-en
  vs masa, the Figure-14-style sensitivity grid;
* ``table1``      -- the qualitative comparison matrix;
* ``reliability`` -- the fault-injection matrix;
* ``query``       -- run one SQL statement on a chosen design
  (``--explain`` prints the physical plan instead of simulating);
* ``explain``     -- show the planner's operator tree for a statement;
* ``trace``       -- ``trace report`` runs one statement with the
  cycle-level timeline recorder attached and prints per-bank
  utilization / row-hit-rate tables plus the stall breakdown;
* ``bench``       -- host-performance baseline over a pinned kernel
  set (``--compare BENCH_x.json`` gates regressions for CI);
* ``schemes``     -- list the available designs.

Every figure/table command also speaks JSON (``--json``) and can drop
its payload into an artifacts directory (``--artifacts DIR``); ``query``
additionally offers ``--stats`` (metrics registry dump), ``--profile``
(phase-span flamegraph), ``--trace`` (command-level trace summary,
exported as JSONL when combined with ``--artifacts``), ``--stalls``
(cycle-accounting stall attribution) and ``--timeline`` (timeline
recording; Chrome trace-event export with ``--artifacts``).  Sweep
commands accept ``--timeline`` to record every simulated point.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple


def _add_size_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ta", type=int, default=512,
                        help="records in the wide table Ta")
    parser.add_argument("--tb", type=int, default=1024,
                        help="records in the narrow table Tb")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of text")
    parser.add_argument("--artifacts", metavar="DIR", default=None,
                        help="also write the result into DIR as JSON")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Shared flags of every sweep command (they all execute through
    :class:`repro.exp.SweepEngine`)."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep points "
                             "(results are identical at any N)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR, else ~/.cache/repro/sweeps)")
    parser.add_argument("--no-cache", action="store_true",
                        help="re-simulate every point; neither read nor "
                             "write the result cache")
    parser.add_argument("--check", action="store_true",
                        help="attach the repro.check protocol checker and "
                             "plan oracle to every simulated point (a "
                             "violation aborts the sweep)")
    parser.add_argument("--timeline", action="store_true",
                        help="record a cycle-level timeline for every "
                             "simulated point (cached points are still "
                             "hits: the flag is not part of the cache "
                             "key); Chrome trace-event exports land in "
                             "--artifacts when set")


def _count(args, flag: str) -> int:
    """The value of a count flag, which must be at least 1."""
    from .exp import UsageError

    value = getattr(args, flag)
    if value < 1:
        raise UsageError(f"--{flag} must be at least 1, got {value}")
    return value


def _sizes(args) -> dict:
    return {"n_ta": _count(args, "ta"), "n_tb": _count(args, "tb")}


def _gather(args, scheme: Optional[str] = None) -> Optional[int]:
    """The value of ``--gather``: one of the paper's strided
    granularities (gather factors 2/4/8), or -- for a ``scheme`` without
    stride hardware -- 1.  ``None`` (flag omitted) takes the default."""
    from .core.registry import GATHER_FACTORS, takes_gather_factor
    from .exp import UsageError

    value = args.gather
    if value is None:
        return None
    if scheme is not None and not takes_gather_factor(scheme):
        if value != 1:
            raise UsageError(
                f"design {scheme!r} has no strided access hardware; "
                f"drop --gather (got {value})"
            )
    elif value not in GATHER_FACTORS:
        raise UsageError(
            f"--gather must be one of "
            f"{' '.join(map(str, GATHER_FACTORS))}, got {value}"
        )
    return value


#: The flag groups a sweep command can take: name -> (add the flags to a
#: parser, map parsed flags to keyword arguments of the harness).
_FLAG_GROUPS = {
    "size": (_add_size_args, _sizes),
    # Figure 15 fixes its narrow table at 64 records: --tb is accepted
    # and checked like everywhere else, but not passed on
    "ta": (_add_size_args, lambda args: {"n_ta": _sizes(args)["n_ta"]}),
    "designs": (
        lambda p: p.add_argument(
            "--designs", nargs="*", default=None,
            help="designs to compare against the baseline (default: "
                 "the sweep's standard set)"),
        lambda args: {"designs": args.designs or None},
    ),
    "queries": (
        lambda p: p.add_argument(
            "--queries", nargs="*", default=None,
            help="queries to sweep (default: the sweep's standard set)"),
        lambda args: {"queries": args.queries or None},
    ),
    "gather": (
        lambda p: p.add_argument(
            "--gather", type=int, default=8,
            help="gather factor for stride-capable designs"),
        lambda args: {"gather_factor": _gather(args)},
    ),
    "panels": (
        lambda p: p.add_argument(
            "--panels", nargs="*", default=None,
            help="panels a..i (default: all)"),
        lambda args: {"panels": args.panels or None},
    ),
    "trials": (
        lambda p: p.add_argument(
            "--trials", type=int, default=500,
            help="fault-injection trials per fault model"),
        lambda args: {"trials": _count(args, "trials")},
    ),
}


@dataclass(frozen=True)
class _Sweep:
    """One sweep command: its harness entry point (``module:function``
    under :mod:`repro.harness`, imported on use; it takes ``engine=`` and
    returns a result with ``payload()`` and ``render()``) and the flag
    groups it takes, in option order."""

    name: str
    help: str
    run: str
    flags: Tuple[str, ...]


#: Every sweep command.  Each also takes the output and engine flags.
SWEEPS = (
    _Sweep("figure12", "speedup over all queries",
           "figure12:run_figure12", ("size", "designs", "queries")),
    _Sweep("figure13", "power and energy efficiency",
           "figure13:run_figure13", ("size", "designs")),
    _Sweep("figure14a", "substrate swap",
           "figure14:run_figure14a", ("size",)),
    _Sweep("figure14b", "strided granularity sweep",
           "figure14:run_figure14b", ("size",)),
    _Sweep("figure15", "parametric query sweeps",
           "figure15:run_figure15", ("ta", "panels")),
    _Sweep("salp", "subarray-level-parallelism interaction sweep",
           "salp:run_salp_sweep", ("size", "designs", "queries")),
    _Sweep("kernels", "micro-kernel stride sweep (generated workloads)",
           "kernels:run_kernel_sweep", ("designs", "gather")),
    _Sweep("reliability", "fault-injection matrix",
           "reliability:run_reliability", ("trials",)),
)


def _make_engine(args):
    """A :class:`SweepEngine` from the shared sweep flags."""
    from .exp import ResultCache, SweepEngine, default_cache_dir

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return SweepEngine(jobs=_count(args, "jobs"), cache=cache,
                       check=args.check, timeline=args.timeline,
                       timeline_dir=args.artifacts)


def _finish_sweep(args, name: str, engine) -> None:
    """Engine epilogue: one-line summary on stderr, sweep manifest into
    the artifacts directory when one was requested."""
    print(engine.summary(), file=sys.stderr)
    if args.artifacts:
        from .obs.artifacts import ArtifactWriter

        path = ArtifactWriter(args.artifacts).write_json(
            f"{name}.sweep.json", engine.manifest()
        )
        print(f"wrote {path}", file=sys.stderr)


def _emit(args, name: str, payload, text_fn) -> int:
    """Common output path: text by default, JSON and/or artifacts on
    request.  ``text_fn`` is lazy so --json skips ASCII rendering."""
    from .obs.artifacts import ArtifactWriter, to_jsonable

    if args.artifacts:
        path = ArtifactWriter(args.artifacts).write_json(
            f"{name}.json", payload
        )
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True))
    else:
        print(text_fn())
    return 0


def _cmd_sweep(args) -> int:
    """Run one sweep command: check its flags and build the harness
    arguments, run the harness on one engine, print the result."""
    sweep = args.sweep
    kwargs = {}
    for group in sweep.flags:
        kwargs.update(_FLAG_GROUPS[group][1](args))
    module, function = sweep.run.split(":")
    run = getattr(importlib.import_module(f"repro.harness.{module}"),
                  function)
    engine = _make_engine(args)
    result = run(engine=engine, **kwargs)
    code = _emit(args, sweep.name, result.payload(), result.render)
    _finish_sweep(args, sweep.name, engine)
    return code


def _cmd_figure14c(args) -> int:
    from .harness.figure14 import figure14c_payload, render_figure14c

    return _emit(args, "figure14c", figure14c_payload(), render_figure14c)


def _cmd_table1(args) -> int:
    from .core.compare import comparison_matrix, render_table

    payload = {"kind": "table1", "matrix": comparison_matrix()}
    return _emit(args, "table1", payload, render_table)

def _explain_one(scheme_name, query, tables, gather_factor, as_json):
    from .imdb.planner import plan_for

    plan = plan_for(scheme_name, query, tables,
                    gather_factor=gather_factor)
    if as_json:
        return plan.to_dict()
    return plan.explain()


def _statement(args, all_schemes: bool = False):
    """The parsed statement and fresh tables of a single-run command,
    after checking ``--scheme`` (unless every scheme runs), ``--gather``
    and ``--ta/--tb``."""
    from .exp import UsageError, scheme_name
    from .imdb.sql import SQLError, parse
    from .workloads import make_tables

    scheme = None if all_schemes else scheme_name(args.scheme)
    _gather(args, scheme)
    sizes = _sizes(args)
    try:
        query = parse(args.sql, name="cli")
    except SQLError as exc:
        raise UsageError(f"bad SQL: {exc}") from None
    return query, make_tables(sizes["n_ta"], sizes["n_tb"])


def _cmd_explain(args) -> int:
    from .core.registry import available_schemes, takes_gather_factor

    query, tables = _statement(args, all_schemes=args.all_schemes)
    schemes = available_schemes() if args.all_schemes else [args.scheme]

    def gather_for(name):
        # stride-less designs reject an explicit gather factor; with
        # --all-schemes the flag only applies where it is meaningful
        if args.all_schemes and not takes_gather_factor(name):
            return None
        return args.gather

    if args.json:
        payload = {
            name: _explain_one(name, query, tables, gather_for(name), True)
            for name in schemes
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    blocks = []
    for name in schemes:
        tree = _explain_one(name, query, tables, gather_for(name), False)
        blocks.append(f"-- {name} --\n{tree}" if args.all_schemes else tree)
    print("\n\n".join(blocks))
    return 0


def _cmd_query(args) -> int:
    from .workloads import make_tables
    from .obs import Observation
    from .sim.runner import run_query

    query, tables = _statement(args)
    if args.explain:
        # plan only -- no simulation
        out = _explain_one(args.scheme, query, tables, args.gather,
                           args.json)
        print(json.dumps(out, indent=2, sort_keys=True) if args.json
              else out)
        return 0
    observe = Observation(trace=args.trace, timeline=args.timeline,
                          artifacts_dir=args.artifacts)
    result = run_query(args.scheme, query, tables,
                       gather_factor=args.gather, observe=observe,
                       check=args.check)
    if args.json:
        from .obs.artifacts import to_jsonable

        print(json.dumps(to_jsonable(result.manifest()), indent=2,
                         sort_keys=True))
    else:
        print(f"scheme   : {result.scheme}")
        print(f"result   : {result.result}")
        print(f"cycles   : {result.cycles}  ({result.ns / 1000:.1f} us)")
        print(f"power    : {result.power.total_mw:.0f} mW")
        stats = result.memory_stats
        print(
            f"commands : {stats.reads} RD ({stats.gather_reads} gathers), "
            f"{stats.writes} WR, {stats.acts + stats.col_acts} ACT, "
            f"{stats.mode_switches} mode switches"
        )
        if args.check:
            print(
                f"checked  : {observe.registry.value('check.commands')} "
                f"commands, 0 violations"
            )
    if args.stats:
        print()
        print(observe.registry.render())
    if args.profile:
        print()
        print(observe.profiler.render())
    if args.trace and not args.json:
        print()
        print(observe.tracer.report(result.cycles))
    if args.stalls and not args.json:
        from .obs import render_stall_report

        print()
        print("stall attribution (cycles):")
        print(render_stall_report(result.stalls["per_core"]))
    if args.timeline and not args.json:
        print()
        print(observe.timeline_recorder.report())
    if observe.manifest_path is not None:
        print(f"wrote {observe.manifest_path}", file=sys.stderr)
    if args.baseline and args.scheme != "baseline":
        tables = make_tables(args.ta, args.tb)
        base = run_query("baseline", query, tables)
        print(f"speedup  : {base.cycles / result.cycles:.2f}x over baseline")
    return 0


def _cmd_bench(args) -> int:
    from .harness.bench import (
        compare_bench,
        load_bench,
        profile_bench,
        render_bench,
        run_bench,
        write_bench,
    )

    if args.profile:
        from .obs.artifacts import ArtifactWriter

        payload, text = profile_bench(
            n_ta=args.ta, n_tb=args.tb, top_n=args.profile_top
        )
        print(text, end="")
        writer = ArtifactWriter(args.out)
        path = writer.write_json("bench-profile.json", payload)
        print(f"wrote {path}", file=sys.stderr)
        return 0

    payload = run_bench(args.label, n_ta=args.ta, n_tb=args.tb,
                        repeats=args.repeats)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_bench(payload))
    path = write_bench(payload, args.out)
    print(f"wrote {path}", file=sys.stderr)
    if args.compare:
        baseline = load_bench(args.compare)
        regressions, notes = compare_bench(
            payload, baseline, threshold=args.threshold,
            strict_cycles=args.strict_cycles,
        )
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        if regressions:
            for regression in regressions:
                print(f"REGRESSION: {regression}", file=sys.stderr)
            return 1
        print(
            f"ok: within {args.threshold:.1f}x of "
            f"{baseline['label']} ({args.compare})",
            file=sys.stderr,
        )
    return 0


def _cmd_trace_report(args) -> int:
    from .obs import Observation, render_stall_report
    from .sim.runner import run_query

    query, tables = _statement(args)
    observe = Observation(timeline=True, artifacts_dir=args.artifacts)
    result = run_query(args.scheme, query, tables,
                       gather_factor=args.gather, observe=observe)
    print(observe.timeline_recorder.report())
    print()
    print("stall attribution (cycles):")
    print(render_stall_report(result.stalls["per_core"]))
    if observe.manifest_path is not None:
        print(f"wrote {observe.manifest_path}", file=sys.stderr)
    return 0


def _parse_inject(pairs) -> tuple:
    """Parse --inject PARAM=VALUE pairs into timing-override tuples;
    PARAM must be an integer field of the timing table."""
    from dataclasses import fields

    from .dram.timing import TimingParams
    from .exp import UsageError

    known = [f.name for f in fields(TimingParams) if f.type in (int, "int")]
    out = []
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not (sep and name and value.lstrip("-").isdigit()):
            raise UsageError(f"--inject wants PARAM=INT, got {pair!r}")
        if name not in known:
            raise UsageError(
                f"--inject: {name!r} is not a timing parameter "
                f"(known: {' '.join(known)})"
            )
        out.append((name, int(value)))
    return tuple(out)


def _cmd_check_fuzz(args) -> int:
    from .check import DEFAULT_SCHEMES, run_fuzz
    from .exp import scheme_name

    report = run_fuzz(
        seed=args.seed,
        cases=_count(args, "cases"),
        schemes=(tuple(scheme_name(name) for name in args.schemes)
                 if args.schemes else DEFAULT_SCHEMES),
        inject=_parse_inject(args.inject),
        artifacts_dir=args.artifacts,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.json:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    else:
        s = report.summary()
        status = "OK" if report.ok else "FAIL"
        print(f"{status}: {s['cases']} cases, {s['commands']} commands "
              f"checked, {s['failures']} failures")
        if report.reproducer_path:
            print(f"reproducer: {report.reproducer_path}")
    return 0 if report.ok else 1


def _cmd_check_replay(args) -> int:
    from .check.fuzz import load_case, run_case
    from .exp import UsageError, scheme_name

    try:
        case = load_case(args.artifact)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise UsageError(
            f"cannot replay {args.artifact}: not a fuzz reproducer "
            f"({type(exc).__name__}: {exc})"
        ) from None
    scheme_name(case.scheme)
    result = run_case(case)
    payload = {
        "case": result.case.describe(),
        "commands": result.commands,
        "failed": result.failed,
        "signature": result.signature(),
        "violations": [v.to_dict() for v in result.violations],
        "mismatches": [m.to_dict() for m in result.mismatches],
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{result.case.describe()}: "
              f"{'FAIL ' + str(result.signature()) if result.failed else 'OK'}")
        for v in result.violations[:8]:
            print(f"  {v}")
        for m in result.mismatches[:8]:
            print(f"  {m}")
    return 1 if result.failed else 0


def _cmd_schemes(args) -> int:
    from .core.registry import available_schemes, make_scheme

    rows = []
    for name in available_schemes():
        scheme = make_scheme(name)
        rows.append({
            "name": name,
            "timing": scheme.timing.name,
            "supports_stride": scheme.supports_stride,
            "gather_factor": (
                scheme.gather_factor if scheme.supports_stride else None
            ),
            "area_silicon_fraction": scheme.area.silicon_fraction,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        stride = (
            f"gather x{row['gather_factor']}"
            if row["supports_stride"]
            else "no stride hw"
        )
        print(
            f"{row['name']:14s} {row['timing']:22s} {stride:14s} "
            f"area +{row['area_silicon_fraction']:.2%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'SAM: Accelerating Strided Memory "
                    "Accesses' (MICRO 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for sweep in SWEEPS:
        p = sub.add_parser(sweep.name, help=sweep.help)
        for group in sweep.flags:
            _FLAG_GROUPS[group][0](p)
        _add_output_args(p)
        _add_sweep_args(p)
        p.set_defaults(func=_cmd_sweep, sweep=sweep)

    p = sub.add_parser("figure14c", help="area/storage overhead")
    _add_output_args(p)
    p.set_defaults(func=_cmd_figure14c)

    p = sub.add_parser("table1", help="qualitative comparison matrix")
    _add_output_args(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("check", help="correctness tooling (repro.check)")
    check_sub = p.add_subparsers(dest="check_command", required=True)
    f = check_sub.add_parser(
        "fuzz", help="randomized config x trace fuzzing with the protocol "
                     "checker and data oracle attached")
    f.add_argument("--seed", type=int, default=0,
                   help="base seed of the deterministic case stream")
    f.add_argument("--cases", type=int, default=200,
                   help="number of generated cases")
    f.add_argument("--schemes", nargs="*", default=None,
                   help="designs to draw from (default: the six core "
                        "designs)")
    f.add_argument("--inject", nargs="*", default=None,
                   metavar="PARAM=VALUE",
                   help="corrupt the controller-side timing table "
                        "(e.g. tRCD=1) to prove the checker catches it")
    f.add_argument("--artifacts", metavar="DIR", default=None,
                   help="directory for minimized JSON reproducers")
    f.add_argument("--json", action="store_true",
                   help="print the machine-readable summary")
    f.set_defaults(func=_cmd_check_fuzz)
    r = check_sub.add_parser(
        "replay", help="re-run a minimized JSON reproducer")
    r.add_argument("artifact", help="path to a fuzz-failure-*.json file")
    r.add_argument("--json", action="store_true",
                   help="print the machine-readable outcome")
    r.set_defaults(func=_cmd_check_replay)

    p = sub.add_parser("query", help="run one SQL statement")
    p.add_argument("sql", help="e.g. 'SELECT SUM(f9) FROM Ta WHERE f10 > "
                               "7500'")
    p.add_argument("--scheme", default="SAM-en")
    p.add_argument("--gather", type=int, default=None,
                   help="gather factor (2/4/8)")
    p.add_argument("--baseline", action="store_true",
                   help="also run the baseline and print the speedup")
    p.add_argument("--stats", action="store_true",
                   help="print the full metrics registry after the run")
    p.add_argument("--profile", action="store_true",
                   help="print the phase-span profile after the run")
    p.add_argument("--trace", action="store_true",
                   help="attach a command tracer (report + JSONL export "
                        "with --artifacts)")
    p.add_argument("--check", action="store_true",
                   help="attach the repro.check protocol checker and "
                        "plan oracle (a violation aborts the run)")
    p.add_argument("--explain", action="store_true",
                   help="print the physical plan (operator tree with "
                        "access modes, footprints and cost estimates) "
                        "instead of simulating")
    p.add_argument("--stalls", action="store_true",
                   help="print the cycle-accounting stall attribution "
                        "(per-core busy / stall-reason breakdown)")
    p.add_argument("--timeline", action="store_true",
                   help="attach the timeline recorder (per-bank report; "
                        "Chrome trace-event export with --artifacts)")
    _add_size_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "trace", help="cycle-level timeline tooling")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    t = trace_sub.add_parser(
        "report", help="run one statement with the timeline recorder and "
                       "print per-bank utilization, row-hit-rate and "
                       "stall-attribution tables")
    t.add_argument("sql", help="e.g. 'SELECT SUM(f9) FROM Ta WHERE "
                               "f10 > 7500'")
    t.add_argument("--scheme", default="SAM-en")
    t.add_argument("--gather", type=int, default=None,
                   help="gather factor (2/4/8)")
    _add_size_args(t)
    t.add_argument("--artifacts", metavar="DIR", default=None,
                   help="also write the run manifest, Chrome trace-event "
                        "JSON and timeline JSONL into DIR")
    t.set_defaults(func=_cmd_trace_report)

    p = sub.add_parser(
        "bench", help="host-performance baseline over a pinned kernel set")
    p.add_argument("--label", default="local",
                   help="payload label; the output file is "
                        "BENCH_<label>.json")
    p.add_argument("--out", metavar="DIR", default=".",
                   help="directory for BENCH_<label>.json (default: cwd)")
    p.add_argument("--repeats", type=int, default=2,
                   help="runs per kernel; the fastest wall time counts")
    p.add_argument("--compare", metavar="FILE", default=None,
                   help="compare against a stored bench payload instead "
                        "of writing one; exits non-zero on a wall-time "
                        "regression beyond --threshold")
    p.add_argument("--threshold", type=float, default=2.0,
                   help="wall-time regression gate for --compare "
                        "(default: 2.0x)")
    p.add_argument("--strict-cycles", action="store_true",
                   help="with --compare, treat any simulated-cycle drift "
                        "as a regression (ratchet mode for perf refactors "
                        "that promise identical behavior)")
    p.add_argument("--profile", action="store_true",
                   help="cProfile one pass over the pinned kernels and "
                        "write the top-N hot functions to "
                        "<out>/bench-profile.json instead of timing")
    p.add_argument("--profile-top", type=int, default=30, metavar="N",
                   help="rows to keep in the --profile table "
                        "(default: 30)")
    _add_size_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit the bench payload as JSON")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "explain", help="show the physical query plan without running it")
    p.add_argument("sql", help="e.g. 'SELECT f3 FROM Ta WHERE f10 > 7500'")
    p.add_argument("--scheme", default="SAM-en")
    p.add_argument("--all-schemes", action="store_true",
                   help="print the plan under every registered design")
    p.add_argument("--gather", type=int, default=None,
                   help="gather factor (2/4/8)")
    _add_size_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit the plan tree(s) as JSON")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("schemes", help="list available designs")
    p.add_argument("--json", action="store_true",
                   help="emit the scheme list as JSON")
    p.set_defaults(func=_cmd_schemes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .exp import UsageError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        # nested commands ("check fuzz", "trace report") name their leaf
        path = [args.command, getattr(args, "check_command", None),
                getattr(args, "trace_command", None)]
        print(f"repro {' '.join(filter(None, path))}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
