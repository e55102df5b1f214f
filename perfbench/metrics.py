"""The benchmark's metric table: workloads, end-to-end metrics, layers.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds listed here; ``test_perfbench.py`` checks that the
two agree.  The table also records what ``BENCHMARK.json`` has no field
for: the layer of each per-layer metric, the end-to-end metric and
workloads it is expected to move, and the held-out seed.
"""

from __future__ import annotations

#: seed of the repository's standard tables; the default workload seed
DEFAULT_SEED = 42

#: a seed never used while the benchmark or a change was tuned; re-check
#: every performance claim on it
HELD_OUT_SEED = 1805

#: table sizes of the Figure 12 sweep (records), far below the paper's 10M
FIG12_TA_RECORDS = 64
FIG12_TB_RECORDS = 128

#: fuzz cases per pass: the most that keep the tail at p95 (1000 would
#: move it to p99), so 49 samples lie beyond it and the case mix of one
#: seed moves it as little as it can
FUZZ_CASES = 990

#: sweep workers of kernels-rw (the benchmark host has two cores)
KERNEL_JOBS = 2

#: allowed gap between the summed span self times of the traced pass and
#: its wall time, as a share of the wall time
SPAN_COVERAGE_BOUND = 0.10

#: Figure 12 geomean speed-ups the paper reports (Q, Qs)
PAPER_FIG12 = {
    "SAM-sub": (3.8, 0.70),
    "SAM-IO": (4.1, 1.00),
    "SAM-en": (4.2, 1.00),
    "GS-DRAM-ecc": (2.7, 0.59),
    "RC-NVM-bit": (2.6, 0.42),
    "RC-NVM-wd": (3.4, 0.54),
}

WORKLOADS = {
    "fig12-queries": (
        "The paper's headline Figure 12 grid, cold into a fresh result "
        "cache then replayed warm: read-heavy, FR-FCFS, cores and sector "
        "caches, no checker."
    ),
    "kernels-rw": (
        "The strided and fixed micro-kernels on baseline/SAM-en/masa under "
        "check on 2 workers: stores and writebacks, the masa path and pool "
        "balance."
    ),
    "fuzz-checked": (
        "Seeded checked fuzz cases driving the controller directly: the "
        "checker, oracles, ECC and datapath dominate, no cores, caches, "
        "planner or sweep engine."
    ),
}

#: (name, unit, better, bound).  Host speed on the shared two-vCPU Xeon
#: VM the benchmark was tuned on swings by up to 1.6x for seconds to
#: minutes; times are reference seconds (``speed.py``), which takes most
#: of that out, but set-up time (file and import work the probes do not
#: model) and the pool's scheduling still move by 10-15% from run to run,
#: so every timing keeps the widest bound; memory does not.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sim_cycles_per_s", "cycles/s", "higher", 0.25),
    ("point_p50_ms", "ms", "lower", 0.25),
    ("point_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

FIG12, KERNELS, FUZZ = "fig12-queries", "kernels-rw", "fuzz-checked"
SWEEPS = (FIG12, KERNELS)
ALL = (FIG12, KERNELS, FUZZ)

#: layers, as the repository's modules
LAYERS = (
    "kernel", "dram.controller", "dram", "cpu", "cache", "sim.system",
    "workloads", "imdb", "core", "obs", "power", "check", "ecc",
    "dram.datapath", "exp", "trace",
)

#: end-to-end metrics a layer metric is expected to move
CYCLES, P50 = ("sim_cycles_per_s",), ("point_p50_ms",)
CONTROLLER = ("sim_cycles_per_s", "point_tail_ms")
BUILD = ("point_p50_ms", "setup_s")
CHECKED = ("sim_cycles_per_s", "point_p50_ms")
WALL = ("wall_s",)

#: (name, unit, better, layer, end-to-end metrics it should move, on
#: which workloads)
PER_LAYER = (
    ("kernel.events", "count", "lower", "kernel", CYCLES, SWEEPS),
    ("kernel.events_per_cycle", "events/cycle", "lower", "kernel", CYCLES,
     SWEEPS),
    ("kernel.dispatch_self_s", "s", "lower", "kernel", CYCLES, SWEEPS),
    ("dram.controller.wakes", "count", "lower", "dram.controller",
     CONTROLLER, SWEEPS),
    ("dram.controller.wake_self_s", "s", "lower", "dram.controller",
     CONTROLLER, SWEEPS),
    ("dram.controller.commands_per_wake", "cmd/wake", "higher",
     "dram.controller", CONTROLLER, SWEEPS),
    ("dram.controller.submits", "count", "lower", "dram.controller",
     CONTROLLER, SWEEPS),
    ("dram.controller.submit_self_s", "s", "lower", "dram.controller",
     CONTROLLER, SWEEPS),
    ("dram.controller.queue_full_rejects", "count", "lower",
     "dram.controller", CONTROLLER, SWEEPS),
    # model counts: a host-only speed-up must leave them exactly as is
    ("sim.cycles", "cycles", "lower", "dram", CYCLES, ALL),
    ("dram.commands", "count", "lower", "dram", CYCLES, ALL),
    ("dram.row_hit_rate", "ratio", "higher", "dram", CYCLES, ALL),
    ("cpu.core.advances", "count", "lower", "cpu", CYCLES, (FIG12,)),
    ("cpu.core.advance_self_s", "s", "lower", "cpu", CYCLES, (FIG12,)),
    ("cpu.core.retries", "count", "lower", "cpu", CYCLES, (FIG12,)),
    ("cache.calls", "count", "lower", "cache", CYCLES, SWEEPS),
    ("cache.self_s", "s", "lower", "cache", CYCLES, SWEEPS),
    ("cache.hit_rate", "ratio", "higher", "cache", CYCLES, SWEEPS),
    ("sim.system.issue_self_s", "s", "lower", "sim.system", CYCLES,
     SWEEPS),
    ("sim.system.callbacks", "count", "lower", "sim.system", CYCLES,
     SWEEPS),
    ("sim.system.callback_self_s", "s", "lower", "sim.system", CYCLES,
     SWEEPS),
    ("sim.system.wb_polls_futile_frac", "ratio", "lower", "sim.system",
     CYCLES, SWEEPS),
    ("workloads.materialize_s", "s", "lower", "workloads", BUILD,
     (FIG12,)),
    ("workloads.build_self_s", "s", "lower", "workloads", BUILD, (FIG12,)),
    ("workloads.ops_built", "count", "lower", "workloads", BUILD,
     (FIG12,)),
    ("imdb.plan_self_s", "s", "lower", "imdb", BUILD, (FIG12,)),
    ("imdb.lower_self_s", "s", "lower", "imdb", BUILD, (FIG12,)),
    ("core.make_scheme_s", "s", "lower", "core", BUILD, (FIG12,)),
    ("sim.allocate_s", "s", "lower", "sim.system", BUILD, (FIG12,)),
    ("obs.stalls.attribute_s", "s", "lower", "obs", P50, SWEEPS),
    ("power.evaluate_s", "s", "lower", "power", P50, SWEEPS),
    ("check.protocol_self_s", "s", "lower", "check", CHECKED, (FUZZ,)),
    ("check.commands_checked", "count", "lower", "check", CHECKED,
     (FUZZ,)),
    ("check.oracle_self_s", "s", "lower", "check", CHECKED, (FUZZ,)),
    ("ecc.codec_self_s", "s", "lower", "ecc", CHECKED, (FUZZ,)),
    ("dram.datapath_self_s", "s", "lower", "dram.datapath", CHECKED,
     (FUZZ,)),
    ("check.fuzz.generate_s", "s", "lower", "check", CHECKED, (FUZZ,)),
    ("exp.pool_idle_frac", "ratio", "lower", "exp", WALL, (KERNELS,)),
    ("exp.cache_get_s", "s", "lower", "exp", WALL, (FIG12,)),
    ("exp.cache_put_s", "s", "lower", "exp", WALL, SWEEPS),
    ("exp.cache_bytes", "B", "lower", "exp", WALL, SWEEPS),
    ("exp.digest_s", "s", "lower", "exp", WALL + ("setup_s",), SWEEPS),
    ("exp.replay_s", "s", "lower", "exp", WALL, (FIG12,)),
    ("trace.overhead_frac", "ratio", "lower", "trace", WALL, ALL),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this table describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, *_ in PER_LAYER
        ],
    }
