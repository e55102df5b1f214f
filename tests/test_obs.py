"""Tests for the observability layer: metrics registry, span profiler,
run artifacts and stall diagnostics."""

import json
import warnings
from dataclasses import dataclass

import pytest

from repro.workloads import make_tables
from repro.imdb.sql import parse
from repro.obs import (
    Observation,
    SimulationStallError,
    build_run_manifest,
    git_describe,
    to_jsonable,
)
from repro.obs.artifacts import ArtifactWriter
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import SpanProfiler
from repro.sim.runner import run_query


def _small_query():
    return parse("SELECT SUM(f9) FROM Ta WHERE f10 > 7500", name="t")


# --------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.value("a") == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.0)
        reg.gauge("g").set(7.5)
        assert reg.value("g") == 7.5

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_buckets(self):
        h = Histogram("h", (10, 20, 30))
        for v in (5, 15, 25, 99):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.total == 4
        assert h.mean == pytest.approx(36.0)

    def test_histogram_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", (3, 2, 1))

    def test_histogram_quantile(self):
        h = Histogram("h", (10, 20, 40))
        for _ in range(9):
            h.observe(5)
        h.observe(35)
        assert h.quantile(0.5) == 10
        assert h.quantile(1.0) == 40

    def test_publish_struct(self):
        @dataclass
        class S:
            reads: int = 7
            label: str = "no"  # non-numeric fields are skipped
            flag: bool = True  # bools are skipped too

        reg = MetricsRegistry()
        reg.publish_struct("dram", S())
        assert reg.value("dram.reads") == 7
        assert "dram.label" not in reg
        assert "dram.flag" not in reg

    def test_as_dict_and_render(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.histogram("h", (1, 2)).observe(1)
        snap = reg.as_dict()
        assert snap["n"] == 2
        assert snap["h"]["type"] == "histogram"
        text = reg.render()
        assert "n" in text and "h" in text

    def test_render_empty(self):
        assert MetricsRegistry().render() == "(no metrics)"

    # ---- histogram edge cases

    def test_empty_histogram_mean_and_quantile(self):
        h = Histogram("h", (10, 20))
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.total == 0

    def test_quantile_out_of_range_raises(self):
        h = Histogram("h", (10,))
        h.observe(5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_extremes(self):
        h = Histogram("h", (10, 20))
        h.observe(5)
        h.observe(99)  # overflow bucket maps to last finite bound
        assert h.quantile(0.0) == 10
        assert h.quantile(1.0) == 20

    def test_histogram_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_as_dict_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc()
        reg.gauge("mid").set(1)
        assert list(reg.as_dict()) == ["alpha", "mid", "zeta"]
        assert reg.names() == ["alpha", "mid", "zeta"]

    def test_render_rows_follow_sorted_order(self):
        reg = MetricsRegistry()
        reg.counter("b.second").inc()
        reg.counter("a.first").inc()
        lines = reg.render().splitlines()
        assert lines[0].startswith("a.first")
        assert lines[1].startswith("b.second")


# ----------------------------------------------------------------- spans


class TestSpanProfiler:
    def test_nesting(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        assert prof.root.name == "outer"
        assert [c.name for c in prof.root.children] == ["inner"]

    def test_cycle_clock(self):
        t = {"now": 10}
        prof = SpanProfiler(clock=lambda: t["now"])
        span = prof.begin("work")
        t["now"] = 50
        prof.end(span)
        assert span.cycles == 40

    def test_mismatched_end_raises(self):
        prof = SpanProfiler()
        a = prof.begin("a")
        prof.begin("b")
        with pytest.raises(RuntimeError):
            prof.end(a)

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            SpanProfiler().end()

    def test_synthetic_spans(self):
        prof = SpanProfiler()
        with prof.span("run") as run:
            pass
        prof.add(run, "bank0", 5, 25, activations=3)
        child = run.children[0]
        assert child.cycles == 20 and child.meta["activations"] == 3

    def test_render_and_dict(self):
        prof = SpanProfiler()
        with prof.span("run"):
            with prof.span("phase"):
                pass
        text = prof.render()
        assert "run" in text and "phase" in text
        tree = prof.to_dict()
        assert tree[0]["name"] == "run"
        assert tree[0]["children"][0]["name"] == "phase"

    def test_render_empty(self):
        assert SpanProfiler().render() == "(no spans)"


# ------------------------------------------------------------- artifacts


class TestArtifacts:
    def test_to_jsonable_handles_common_shapes(self):
        @dataclass
        class D:
            x: int
            y: tuple

        out = to_jsonable({"d": D(1, (2, 3)), "s": {4}})
        assert out["d"] == {"x": 1, "y": [2, 3]}
        assert out["s"] == [4]

    def test_to_jsonable_falls_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert to_jsonable(Opaque()) == "<opaque>"

    def test_git_describe(self):
        rev = git_describe()
        assert rev is None or isinstance(rev, str)

    def test_writer_roundtrip(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "a")
        path = writer.write_json("x.json", {"k": (1, 2)})
        assert json.loads(path.read_text()) == {"k": [1, 2]}


class TestRunArtifacts:
    @pytest.fixture(scope="class")
    def run(self):
        obs = Observation(trace=True)
        result = run_query("SAM-en", _small_query(), make_tables(128, 128),
                           observe=obs)
        return obs, result

    def test_manifest_contents(self, run):
        _obs, result = run
        manifest = build_run_manifest(result)
        assert manifest["scheme"] == "SAM-en"
        assert manifest["cycles"] == result.cycles
        assert manifest["config"]["cores"] == 4
        assert manifest["metrics"]["dram.reads"] > 0
        assert manifest["spans"]["name"] == "run_query"
        names = [c["name"] for c in manifest["spans"]["children"]]
        assert names[:3] == ["allocate", "build", "execute"]
        json.dumps(manifest)  # fully serializable

    def test_manifest_written_to_disk(self, tmp_path):
        obs = Observation(artifacts_dir=tmp_path)
        run_query("SAM-en", _small_query(), make_tables(128, 128),
                  observe=obs)
        assert obs.manifest_path is not None
        manifest = json.loads(obs.manifest_path.read_text())
        assert manifest["kind"] == "run"
        assert manifest["metrics"]["sim.cycles"] > 0

    def test_manifest_schema_v2_iso_created(self, tmp_path):
        import time

        from repro.obs.artifacts import MANIFEST_SCHEMA_VERSION, iso_utc

        obs = Observation(artifacts_dir=tmp_path)
        run_query("SAM-en", _small_query(), make_tables(128, 128),
                  observe=obs)
        manifest = json.loads(obs.manifest_path.read_text())
        assert MANIFEST_SCHEMA_VERSION >= 2
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        # ISO-8601 UTC sits next to the epoch float and agrees with it
        assert manifest["created"] == iso_utc(manifest["created_unix"])
        time.strptime(manifest["created"], "%Y-%m-%dT%H:%M:%SZ")

    def test_artifacts_shortcut_param(self, tmp_path):
        run_query("SAM-en", _small_query(), make_tables(128, 128),
                  artifacts=str(tmp_path))
        assert list(tmp_path.glob("run-*.json"))

    def test_trace_jsonl_export(self, run, tmp_path):
        obs, _result = run
        path = obs.tracer.export_jsonl(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(obs.tracer.events)
        event = json.loads(lines[0])
        assert {"cycle", "command", "rank", "bank", "row"} <= set(event)

    def test_metrics_on_result(self, run):
        _obs, result = run
        assert result.metrics["dram.reads"] == result.memory_stats.reads
        assert result.metrics["core.misses"] == result.core_stats["misses"]
        assert result.metrics["sim.events"] > 0
        assert 0.0 < result.metrics["sim.event_budget_used"] < 1.0

    def test_power_priced_from_registry(self, run):
        # the registry is the power model's source: pricing the raw
        # struct must agree with what the run reported
        from repro.core.registry import make_scheme
        from repro.power.model import PowerModel

        _obs, result = run
        scheme = make_scheme("SAM-en")
        direct = PowerModel(
            scheme.power_config, scheme.timing, scheme.geometry
        ).evaluate(result.memory_stats, result.cycles)
        assert direct.total_nj == pytest.approx(result.power.total_nj)

    def test_tracer_chains_ring(self, run):
        obs, _result = run
        # the full tracer and the stall ring are both command listeners
        # and see the same command stream
        assert obs.tracer is not None
        assert len(obs.ring) > 0
        assert obs.recent_events(5)[-1][0] == obs.tracer.events[-1].cycle


# ------------------------------------------------------------ diagnostics


class TestStallDiagnostics:
    def _force_stall(self):
        with pytest.raises(SimulationStallError) as info:
            run_query("SAM-en", _small_query(), make_tables(512, 512),
                      max_events=200)
        return info.value

    def test_forced_stall_report(self):
        err = self._force_stall()
        report = err.report
        assert "event budget" in report.reason
        assert report.scheme == "SAM-en"
        assert report.banks, "per-bank state missing"
        assert report.recent_events, "trace ring missing"
        assert report.unfinished_cores
        assert report.read_queue <= report.read_queue_capacity

    def test_stall_render_and_dict(self):
        err = self._force_stall()
        text = str(err)
        assert "stall at cycle" in text
        assert "open banks" in text
        assert "last" in text  # recent command listing
        payload = err.report.to_dict()
        json.dumps(payload)
        assert payload["cycle"] == err.report.cycle

    def test_stall_is_runtime_error(self):
        # callers catching the old RuntimeError keep working
        with pytest.raises(RuntimeError):
            run_query("SAM-en", _small_query(), make_tables(512, 512),
                      max_events=200)


# --------------------------------------------------- runner health metrics


class TestRunnerHealthMetrics:
    def test_event_budget_warning(self):
        # run once to learn the event count, then rerun with a budget
        # tight enough to cross the near-runaway threshold but not stall
        tables = make_tables(128, 128)
        first = run_query("SAM-en", _small_query(), tables)
        events = int(first.metrics["sim.events"])
        tables = make_tables(128, 128)
        with pytest.warns(RuntimeWarning, match="event budget"):
            result = run_query("SAM-en", _small_query(), tables,
                               max_events=int(events * 1.5))
        assert result.metrics["sim.events_near_limit"] == 1
        assert result.metrics["sim.event_budget_used"] > 0.5

    def test_bus_utilization_overflow_not_clamped(self):
        from types import SimpleNamespace

        from repro.sim.runner import _bus_utilization

        obs = Observation()
        scheme = SimpleNamespace(name="s")
        with pytest.warns(RuntimeWarning, match="utilization"):
            value = _bus_utilization(obs, busy=150, cycles=100,
                                     scheme=scheme, workload_name="q")
        assert value == pytest.approx(1.5)
        assert obs.registry.value("sim.bus_utilization_overflow") == 1
        assert obs.registry.value("sim.bus_utilization_raw") == \
            pytest.approx(1.5)

    def test_bus_utilization_normal_path(self):
        from types import SimpleNamespace

        from repro.sim.runner import _bus_utilization

        obs = Observation()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _bus_utilization(obs, busy=50, cycles=100,
                                     scheme=SimpleNamespace(name="s"),
                                     workload_name="q")
        assert value == 0.5
        assert "sim.bus_utilization_overflow" not in obs.registry
