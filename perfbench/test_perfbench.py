"""Self-checks of the benchmark: its table, its tracer and its coverage.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The coverage tests run one traced pass per workload (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as spec  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_json_matches_the_table():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_every_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    end_to_end = {name for name, *_ in spec.END_TO_END}
    for name, _unit, _better, layer, moves, workloads in spec.PER_LAYER:
        assert layer in spec.LAYERS, name
        assert moves and set(moves) <= end_to_end, name
        assert workloads and set(workloads) <= set(spec.WORKLOADS), name


def test_setup_has_the_largest_bound():
    bounds = {name: bound for name, _u, _b, bound in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("samples,percentile", [
    (162, 90), (42, 75), (200, 95), (300, 95), (1000, 99), (12, 50),
])
def test_tail_keeps_ten_samples_beyond_it(samples, percentile):
    assert run.tail_percentile(samples) == percentile


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a"):
                time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.002)
        time.sleep(0.001)
    totals = tracer.totals()
    root = totals["root"][1]
    assert sum(own for _c, _t, own in totals.values()) == pytest.approx(root)
    assert totals["a"][0] == 2
    # nested same-name spans count once in the total
    assert totals["a"][1] < root
    assert totals["a"][1] == pytest.approx(
        totals["a"][2] + totals["b"][1])


REF = speed.REFERENCE_PROBE_S


def test_reference_seconds_scale_host_time_by_probe_speed():
    steady = [(t, REF) for t in range(10)]
    slow = [(t, 2 * REF) for t in range(10)]
    assert speed.reference_seconds(steady, 2.5, 6.5) == pytest.approx(4.0)
    assert speed.reference_seconds(slow, 2.5, 6.5) == pytest.approx(2.0)
    # a probe the timed process ran itself is not its work
    assert speed.reference_seconds(steady, 2.5, 6.5, own=steady) == (
        pytest.approx(4.0 - 4 * REF))


def test_reference_seconds_follow_a_change_of_host_phase():
    samples = [(t, REF) for t in range(5)] + [
        (t, 2 * REF) for t in range(5, 10)]
    # fast up to t=4, slow from t=5, linear in between
    assert speed.reference_seconds(samples, 0, 10) == pytest.approx(
        4 + 0.75 + 2.5)


def test_one_disturbed_probe_moves_nothing():
    samples = [(t, REF) for t in range(10)]
    samples[4] = (4, 5 * REF)
    assert speed.reference_seconds(samples, 1, 8) == pytest.approx(7.0)


def test_probe_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert speed.probe() > 0
    assert gc.isenabled()


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-checked",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


@pytest.fixture(scope="module")
def traced():
    """One ``--trace 1`` run per workload: {workload: saved record}."""
    records = {}
    for workload in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(spec.DEFAULT_SEED), "--seconds", "1",
             "--trace", "1"],
            cwd=ROOT, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        assert result["correct"], proc.stderr.decode()
        records[workload] = json.loads(
            (run.OUT / f"{workload}-seed{spec.DEFAULT_SEED}.json").read_text())
    return records


def test_every_layer_is_measured_on_some_workload(traced):
    busy = {
        layer
        for name, _u, _b, layer, _m, _w in spec.PER_LAYER
        if any(record["metrics"][name] for record in traced.values())
    }
    assert busy == set(spec.LAYERS)


def test_front_end_layers_are_idle_on_fuzz(traced):
    fuzz = traced[spec.FUZZ]["metrics"]
    for name in ("cpu.core.advances", "cpu.core.advance_self_s",
                 "cpu.core.retries", "cache.calls", "imdb.plan_self_s",
                 "workloads.ops_built", "exp.cache_bytes"):
        assert fuzz[name] == 0, name


def test_span_self_times_cover_the_traced_wall(traced):
    for workload, record in traced.items():
        assert abs(1 - record["span_coverage"]) <= spec.SPAN_COVERAGE_BOUND, (
            workload, record["span_coverage"])
