"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.experiments import bench

#: Benchmark commands folded into ``repro bench --suite``.
REMOVED_COMMANDS = (
    "bench-cache", "serve-bench", "perf-bench", "stream-bench",
    "precision-bench", "robustness-bench", "warm-bench", "cluster-bench",
    "soak-bench",
)

#: Default report (and baseline) of every suite: its committed artifact.
COMMITTED_ARTIFACTS = {
    "perf": "BENCH_PR4.json",
    "stream": "BENCH_PR8.json",
    "precision": "BENCH_PR9.json",
    "warm": "BENCH_PR6.json",
    "cluster": "BENCH_PR7.json",
    "soak": "SOAK_PR10.json",
    "robustness": "ROBUSTNESS_PR5.json",
}


class TestRegistry:
    def test_all_figures_registered(self):
        for expected in ("fig02", "fig15", "fig21"):
            assert expected in COMMANDS

    def test_benchmarks_registered_uniformly(self):
        # Every benchmark suite dispatches through the one bench command.
        assert "bench" in COMMANDS and "bench-compare" in COMMANDS
        assert not set(REMOVED_COMMANDS) & set(COMMANDS)

    def test_every_command_has_runner_and_description(self):
        for name, command in COMMANDS.items():
            assert callable(command.runner), name
            assert command.description, name

    def test_all_excludes_benchmarks(self):
        assert not COMMANDS["bench"].in_all
        assert not COMMANDS["bench-compare"].in_all
        assert COMMANDS["fig15"].in_all


class TestParser:
    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig99"])
        # Non-zero exit and a usable message naming valid choices.
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "fig15" in err

    def test_unknown_command_via_main(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_seed_parsed(self):
        args = build_parser().parse_args(["fig15", "--seed", "7"])
        assert args.seed == 7

    def test_bench_options_parsed(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "cluster", "--smoke", "--workers", "4",
             "--output", "o.json", "--baseline", "b.json",
             "--max-regression", "3.5", "--seed", "2"]
        )
        assert args.suite == "cluster"
        assert args.smoke is True
        assert args.workers == 4
        assert args.output == "o.json"
        assert args.baseline == "b.json"
        assert args.max_regression == 3.5
        assert args.seed == 2

    def test_flag_count(self):
        flags = [
            action for action in build_parser()._actions
            if action.option_strings
            and action.dest not in ("help", "version")
        ]
        assert len(flags) <= 12

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out
        # Some dotted version made it out of the package metadata.
        assert any(ch.isdigit() for ch in out)


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out
        assert "ten-liquid" in out
        # The listing is generated from the registry, benchmarks included.
        assert "bench-compare" in out
        assert "run one benchmark suite" in out
        for removed in REMOVED_COMMANDS:
            assert removed not in out

    def test_figure_seed_defaults_to_1(self, capsys):
        assert main(["fig08"]) == 0
        default = capsys.readouterr().out
        assert main(["fig08", "--seed", "1"]) == 0
        assert capsys.readouterr().out == default

    def test_fast_figure_runs(self, capsys):
        assert main(["fig08", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "ratio" in out

    def test_phase_figure_runs(self, capsys):
        assert main(["fig02", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "angular fluctuation" in out

    def test_serve_bench_runs(self):
        # The online-service load benchmark is the perf suite's serve
        # case: cold sequential requests vs the micro-batched service.
        from repro.experiments import perfbench

        result = perfbench.bench_serve(perfbench.SUITE.sizes["smoke"])
        out = perfbench.SUITE.report("smoke", {"serve": result})
        assert "p50" in out and "p95" in out and "p99" in out
        assert "req/s" in out
        assert "batch" in out
        assert "rejected" in out and "retries" in out
        assert "stage cache" in out
        assert "predictions identical: yes" in out
        assert perfbench.check({"serve": result}, "smoke") == []


def _replaying(name, results):
    """Suite ``name`` with its workloads swapped for canned results."""

    def cases(sizes):
        for case, entry in results.items():
            yield case, lambda entry=entry: entry

    return dataclasses.replace(bench.SUITES[name], cases=cases)


class TestBench:
    @pytest.mark.parametrize("name", sorted(COMMITTED_ARTIFACTS))
    def test_every_suite_reachable(self, name, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.setitem(bench.SUITES, name, _replaying(name, {}))
        out = tmp_path / "out.json"
        assert main(["bench", "--suite", name, "--output", str(out)]) == 0
        assert f"bench {name} -- full suite" in capsys.readouterr().out
        assert bench.load_report(out)["benchmark"] == name

    def test_failed_gate_exits_nonzero(self, tmp_path, monkeypatch):
        failing = dataclasses.replace(
            _replaying("perf", {}), check=lambda results, mode: ["boom"]
        )
        monkeypatch.setitem(bench.SUITES, "perf", failing)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--output", str(tmp_path / "out.json")])
        assert "GATE FAILED: boom" in str(excinfo.value)

    def test_defaults_are_the_committed_artifacts(self):
        assert set(bench.SUITES) == set(COMMITTED_ARTIFACTS)
        for name, artifact in COMMITTED_ARTIFACTS.items():
            args = build_parser().parse_args(["bench", "--suite", name])
            # No --output/--baseline: the suite's committed artifact.
            assert args.output is None and args.baseline is None
            assert args.max_regression is None
            assert bench.SUITES[name].output == artifact
        assert bench.SUITES["perf"].max_regression == 2.0
        assert bench.SUITES["stream"].max_regression == 3.0
        assert bench.SUITES["precision"].max_regression == 2.0

    @pytest.mark.parametrize("argv", [
        ["--suite", "perf", "--seed", "3"],
        ["--suite", "stream", "--workers", "4"],
        ["--suite", "cluster", "--store-path", "elsewhere"],
    ])
    def test_setting_the_suite_ignores_exits_2(self, argv, tmp_path,
                                                capsys):
        # A flag the suite's workload would ignore fails before any run
        # instead of reporting a run it did not do.
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", *argv, "--output", str(out)])
        assert excinfo.value.code == 2
        setting = argv[2].lstrip("-").replace("-", "_")
        assert f"has no setting '{setting}'" in capsys.readouterr().err
        assert not out.exists()

    def test_declared_settings_reach_the_workload(self, tmp_path,
                                                  monkeypatch):
        seen = {}

        def cases(sizes):
            seen.update(sizes)
            return iter(())

        monkeypatch.setitem(bench.SUITES, "warm", dataclasses.replace(
            bench.SUITES["warm"], cases=cases
        ))
        main(["bench", "--suite", "warm", "--seed", "5", "--store-path",
              str(tmp_path / "s"), "--output", str(tmp_path / "o.json")])
        assert seen["seed"] == 5
        assert seen["store_path"] == str(tmp_path / "s")

    @pytest.mark.parametrize("removed", REMOVED_COMMANDS)
    def test_removed_commands_exit_2(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([removed])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRobustnessBench:
    def test_registered_outside_all(self):
        assert "robustness" in bench.SUITES
        assert not COMMANDS["bench"].in_all

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "robustness", "--output", "out.json",
             "--workers", "3", "--seed", "4"]
        )
        assert args.suite == "robustness"
        assert args.output == "out.json"
        assert args.workers == 3
        assert args.seed == 4

    def test_default_output_is_the_committed_artifact(self):
        assert bench.SUITES["robustness"].output == "ROBUSTNESS_PR5.json"


class TestPrecisionBench:
    def test_registered_outside_all(self):
        assert "precision" in bench.SUITES
        assert not COMMANDS["bench"].in_all

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "precision", "--smoke", "--output",
             "p.json", "--baseline", "b.json", "--max-regression", "3.5"]
        )
        assert args.smoke is True
        assert args.output == "p.json"
        assert args.baseline == "b.json"
        assert args.max_regression == 3.5

    def test_defaults_are_the_committed_artifact(self):
        args = build_parser().parse_args(["bench", "--suite", "precision"])
        assert args.output is None and args.baseline is None
        assert bench.SUITES["precision"].output == "BENCH_PR9.json"


class TestBenchCompare:
    def test_registered_outside_all(self):
        assert "bench-compare" in COMMANDS
        assert not COMMANDS["bench-compare"].in_all

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["bench-compare", "--compare-old", "a.json",
             "--compare-new", "b.json", "--compare-threshold", "1.5"]
        )
        assert args.compare_old == "a.json"
        assert args.compare_new == "b.json"
        assert args.compare_threshold == 1.5

    def test_identical_reports_compare_clean(self, tmp_path, capsys):
        import json

        report = {
            "schema": 1,
            "suites": {
                "full": {
                    "denoise": {
                        "new_s": 0.1, "baseline_s": 0.2, "speedup": 2.0
                    }
                }
            },
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert main(
            ["bench-compare", "--compare-old", str(path),
             "--compare-new", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regressed_report_exits_nonzero(self, tmp_path, capsys):
        import copy
        import json

        old = {
            "schema": 1,
            "suites": {
                "full": {
                    "denoise": {
                        "new_s": 0.1, "baseline_s": 0.2, "speedup": 2.0
                    }
                }
            },
        }
        new = copy.deepcopy(old)
        new["suites"]["full"]["denoise"]["new_s"] = 0.5
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["bench-compare", "--compare-old", str(old_path),
                 "--compare-new", str(new_path)]
            )
        assert "REGRESSED" in str(excinfo.value)

    def test_missing_report_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="not a readable"):
            main(
                ["bench-compare",
                 "--compare-old", str(tmp_path / "absent.json"),
                 "--compare-new", str(tmp_path / "absent.json")]
            )


class TestPersistCommands:
    def test_registered_outside_all(self):
        assert "store" in COMMANDS
        assert "warm" in bench.SUITES
        assert not COMMANDS["store"].in_all
        assert not COMMANDS["bench"].in_all

    def test_store_options_parsed(self):
        args = build_parser().parse_args(
            ["store", "--store-path", "/tmp/somewhere", "--gc"]
        )
        assert args.store_path == "/tmp/somewhere"
        assert args.gc is True

    def test_warm_bench_defaults_are_the_committed_artifact(self):
        args = build_parser().parse_args(["bench", "--suite", "warm"])
        # No --store-path: the suite's own (and the store command's).
        assert args.store_path is None
        assert args.output is None
        assert bench.SUITES["warm"].output == "BENCH_PR6.json"
        assert bench.SUITES["warm"].sizes["full"]["store_path"] == (
            ".wimi-store"
        )
        assert args.gc is False

    def test_store_command_runs_on_empty_store(self, tmp_path, capsys):
        assert main(["store", "--store-path", str(tmp_path / "empty")]) == 0
        out = capsys.readouterr().out
        assert "artifact store" in out
        assert "0 entries" in out

    def test_store_gc_reports_removals(self, tmp_path, capsys):
        root = tmp_path / "store"
        (root / "objects").mkdir(parents=True)
        (root / "objects" / "stale.tmp").write_bytes(b"crashed write")
        assert main(["store", "--store-path", str(root), "--gc"]) == 0
        out = capsys.readouterr().out
        assert "gc: removed 1 temp file(s)" in out
