"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import SWEEPS, build_parser, main

_SIZE = [("--ta", 512), ("--tb", 1024)]
_OUTPUT = [("--json", False), ("--artifacts", None)]
_ENGINE = [("--jobs", 1), ("--cache-dir", None), ("--no-cache", False),
           ("--check", False), ("--timeline", False)]

#: every subcommand's (option, default) pairs, in parser order: the
#: table that generates the sweep commands must reproduce them exactly
PARSER_SURFACE = {
    "figure12": _SIZE + [("--designs", None), ("--queries", None)]
    + _OUTPUT + _ENGINE,
    "figure13": _SIZE + [("--designs", None)] + _OUTPUT + _ENGINE,
    "figure14a": _SIZE + _OUTPUT + _ENGINE,
    "figure14b": _SIZE + _OUTPUT + _ENGINE,
    "figure14c": _OUTPUT,
    "figure15": _SIZE + [("--panels", None)] + _OUTPUT + _ENGINE,
    "salp": _SIZE + [("--designs", None), ("--queries", None)]
    + _OUTPUT + _ENGINE,
    "kernels": [("--designs", None), ("--gather", 8)] + _OUTPUT + _ENGINE,
    "table1": _OUTPUT,
    "reliability": [("--trials", 500)] + _OUTPUT + _ENGINE,
    "check": [],
    "check fuzz": [("--seed", 0), ("--cases", 200), ("--schemes", None),
                   ("--inject", None), ("--artifacts", None),
                   ("--json", False)],
    "check replay": [("artifact", None), ("--json", False)],
    "query": [("sql", None), ("--scheme", "SAM-en"), ("--gather", None),
              ("--baseline", False), ("--stats", False),
              ("--profile", False), ("--trace", False), ("--check", False),
              ("--explain", False), ("--stalls", False),
              ("--timeline", False)] + _SIZE + _OUTPUT,
    "trace": [],
    "trace report": [("sql", None), ("--scheme", "SAM-en"),
                     ("--gather", None)] + _SIZE + [("--artifacts", None)],
    "bench": [("--label", "local"), ("--out", "."), ("--repeats", 2),
              ("--compare", None), ("--threshold", 2.0),
              ("--strict-cycles", False), ("--profile", False),
              ("--profile-top", 30)] + _SIZE + [("--json", False)],
    "explain": [("sql", None), ("--scheme", "SAM-en"),
                ("--all-schemes", False), ("--gather", None)] + _SIZE
    + [("--json", False)],
    "schemes": [("--json", False)],
}


def _parser_surface(parser, prefix=""):
    """{subcommand: [(option, default), ...]} over nested subparsers."""
    out = {}
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            out[prefix + name] = [
                ("/".join(a.option_strings) or a.dest, a.default)
                for a in sub._actions
                if not isinstance(a, (argparse._SubParsersAction,
                                      argparse._HelpAction))
            ]
            out.update(_parser_surface(sub, prefix + name + " "))
    return out


def _usage_cases():
    """(command, argv) for every sweep command x every bad-input class
    among the flags it takes (every sweep takes --jobs)."""
    by_group = {
        "size": [["--ta", "0"], ["--tb", "0"]],
        "ta": [["--ta", "0"], ["--tb", "-3"]],
        "designs": [["--designs", "bogus"], ["--designs", "SAM_en"],
                    ["--designs", "baseline"],
                    ["--designs", "SAM-en", "SAM-en"]],
        "queries": [["--queries", "Q99"], ["--queries", "Q3", "Qx"]],
        "panels": [["--panels", "z"], ["--panels", "a", "ab"]],
        "trials": [["--trials", "0"]],
        "gather": [["--gather", "0"], ["--gather", "3"]],
    }
    out = []
    for sweep in SWEEPS:
        bad = [["--jobs", "0"]]
        for group in sweep.flags:
            bad += by_group[group]
        if sweep.name == "salp":
            bad.append(["--queries", "Qs1"])  # outside the Q family
        out += [(sweep.name, argv) for argv in bad]
    sql = "SELECT f3 FROM Ta"
    for command in ("query", "explain", "trace report"):
        out += [(command, argv) for argv in (
            [sql, "--scheme", "bogus"],
            [sql, "--scheme", "SAM_en"],
            [sql, "--ta", "0"],
            [sql, "--tb", "-1"],
            ["SELEC f3 FROM Ta"],
            [sql, "--gather", "3"],
            [sql, "--scheme", "baseline", "--gather", "4"],
        )]
    out += [("check fuzz", argv) for argv in (
        ["--cases", "0"],
        ["--schemes", "bogus"],
        ["--inject", "tRCD=x"],
        ["--inject", "bogus=1"],
        ["--inject", "tRCD"],
    )]
    return out


USAGE_CASES = _usage_cases()
SWEEP_NAMES = {sweep.name for sweep in SWEEPS}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure12_args(self):
        args = build_parser().parse_args(
            ["figure12", "--ta", "64", "--designs", "SAM-en"]
        )
        assert args.ta == 64 and args.designs == ["SAM-en"]

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "SELECT f1 FROM Ta"])
        assert args.scheme == "SAM-en" and not args.baseline

    def test_surface_unchanged(self):
        """Every subcommand keeps its option strings, order and defaults
        now that the sweep commands are generated from one table."""
        assert _parser_surface(build_parser()) == PARSER_SURFACE


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command,argv", USAGE_CASES,
        ids=[f"{c}:{' '.join(a)}" for c, a in USAGE_CASES],
    )
    def test_bad_input_exits_2(self, capsys, command, argv):
        """Bad input is one stderr line and exit 2 -- no table, no
        traceback, no simulation."""
        engine = ["--no-cache"] if command in SWEEP_NAMES else []
        code = main([*command.split(), *engine, *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"repro {command}: ")

    def test_unknown_design_suggests_close_names(self, capsys):
        assert main(["kernels", "--designs", "SAM_en"]) == 2
        assert "did you mean SAM-en" in capsys.readouterr().err

    def test_unknown_scheme_suggests_close_names(self, capsys):
        assert main(["query", "SELECT f3 FROM Ta", "--scheme", "SAM_en"]) == 2
        assert "did you mean SAM-en" in capsys.readouterr().err


class TestCommands:
    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "SAM-en" in out and "RC-NVM-wd" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Reliability" in capsys.readouterr().out

    def test_figure14c(self, capsys):
        assert main(["figure14c"]) == 0
        assert "SAM-sub" in capsys.readouterr().out

    def test_reliability(self, capsys):
        assert main(["reliability", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "GS-DRAM" in out and "False" in out

    def test_query_runs(self, capsys):
        code = main(
            [
                "query",
                "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--scheme", "SAM-en", "--baseline",
                "--ta", "128", "--tb", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "gathers" in out

    def test_figure12_small(self, capsys):
        code = main(
            [
                "figure12", "--ta", "64", "--tb", "64",
                "--designs", "SAM-en", "--queries", "Q3",
            ]
        )
        assert code == 0
        assert "Gmean" in capsys.readouterr().out

    def test_figure15_unknown_panel(self, capsys):
        code = main(["figure15", "--ta", "64", "--panels", "z"])
        assert code == 2

    def test_figure15_runs_only_selected_panels(self, tmp_path, capsys):
        """``--panels a`` simulates panel a's 25 points (5 selectivities x
        baseline, column store and 3 designs), not the whole figure."""
        code = main(["figure15", "--ta", "32", "--panels", "a",
                     "--no-cache", "--json", "--artifacts", str(tmp_path)])
        assert code == 0
        assert list(json.loads(capsys.readouterr().out)["panels"]) == ["a"]
        manifest = json.loads((tmp_path / "figure15.sweep.json").read_text())
        assert manifest["totals"]["executed"] == 25

    @pytest.mark.parametrize("queries", (["Q99"], ["Q3", "Q99", "Qs0"]))
    def test_figure12_unknown_query(self, capsys, queries):
        """Unknown query names are a usage error: one line naming them,
        no table, no traceback -- not an empty sweep with null gmeans."""
        code = main(["figure12", "--ta", "64", "--tb", "64", "--no-cache",
                     "--json", "--queries", *queries])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        unknown = [q for q in queries if q != "Q3"]
        assert lines[0].startswith(
            "repro figure12: unknown queries: " + " ".join(unknown) + " ("
        )
        assert "Traceback" not in captured.err


class TestJsonOutput:
    def test_schemes_json(self, capsys):
        assert main(["schemes", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["name"] == "SAM-en" for row in rows)

    def test_figure14c_json(self, capsys):
        assert main(["figure14c", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "figure14c"
        assert "SAM-en" in payload["designs"]

    def test_table1_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "table1"

    def test_figure12_json(self, capsys):
        code = main(
            [
                "figure12", "--ta", "64", "--tb", "64",
                "--designs", "SAM-en", "--queries", "Q3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "figure12"
        assert payload["speedups"]["SAM-en"]["Q3"] > 0

    def test_query_json_is_manifest(self, capsys):
        code = main(
            [
                "query", "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--ta", "128", "--tb", "128", "--json",
            ]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "run"
        assert manifest["scheme"] == "SAM-en"
        assert manifest["metrics"]["dram.reads"] > 0
        assert manifest["spans"]["name"] == "run_query"

    def test_figure14c_artifacts(self, tmp_path, capsys):
        code = main(["figure14c", "--artifacts", str(tmp_path)])
        assert code == 0
        path = tmp_path / "figure14c.json"
        assert json.loads(path.read_text())["kind"] == "figure14c"
        # text output still printed alongside the artifact
        assert "SAM-sub" in capsys.readouterr().out

    def test_query_artifacts_and_trace(self, tmp_path, capsys):
        code = main(
            [
                "query", "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--ta", "128", "--tb", "128",
                "--artifacts", str(tmp_path), "--trace",
            ]
        )
        assert code == 0
        manifests = list(tmp_path.glob("run-*.json"))
        assert manifests, "query manifest not written"
        traces = list(tmp_path.glob("run-*.trace.jsonl"))
        assert traces, "trace JSONL not written"

    def test_query_stats_and_profile(self, capsys):
        code = main(
            [
                "query", "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--ta", "128", "--tb", "128", "--stats", "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dram.reads" in out  # registry dump
        assert "flush_drain" in out  # span profile
