"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list_prints_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "fig20" in out
        assert "georep_level" in out

    def test_list_output_is_byte_stable(self, capsys):
        # figure ids in paper order (the table's), everything else sorted
        assert main(["list"]) == 0
        assert capsys.readouterr().out == (
            "figures  : fig03 fig07 fig08 fig09 fig10 fig11 fig13 fig14 "
            "fig15 fig16 fig17 fig18 fig19 fig20\n"
            "ablations: ack_timeout georep_level n_backups "
            "serialization_bandwidth\n"
            "sweep    : custom config x rate sweeps (see sweep --help)\n"
            "scenarios: autoscale-under-flash-crowd commute-wave "
            "iot-reattach-storm midnight-tau-spike paging-storm "
            "region-failover ring-churn stadium-flash-crowd steady-city "
            "upgrade-under-commute-wave\n"
            "models   : metro-iot-reattach metro-midnight-tau metro-mixed "
            "metro-paging\n"
        )

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage: python -m repro" in capsys.readouterr().out


class TestFigure:
    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_fig20_runs(self, capsys):
        assert main(["figure", "fig20"]) == 0
        out = capsys.readouterr().out
        assert "InitialUEMessage" in out
        assert "asn1per" in out

    def test_fig18_quick_runs(self, capsys):
        assert main(["figure", "fig18"]) == 0
        out = capsys.readouterr().out
        assert "flatbuffers" in out


class TestSweep:
    def test_sweep_runs_and_reports_cache(self, tmp_path, capsys):
        argv = [
            "sweep", "--configs", "neutrino", "--procedure", "attach",
            "--rates", "20e3,40e3", "--procedures-target", "120",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "neutrino" in out
        assert "cache: hits=0 misses=2 stale=0" in out

    def test_sweep_second_run_all_hits(self, tmp_path, capsys):
        argv = [
            "sweep", "--configs", "neutrino", "--rates", "25e3",
            "--procedures-target", "120", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: hits=1 misses=0 stale=0" in out
        assert "executed=0 cached=1" in out

    def test_sweep_no_cache_flag(self, capsys):
        argv = [
            "sweep", "--configs", "neutrino", "--rates", "25e3",
            "--procedures-target", "120", "--no-cache",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out

    def test_sweep_parallel_jobs(self, tmp_path, capsys):
        argv = [
            "sweep", "--configs", "neutrino,existing_epc", "--rates", "20e3,40e3",
            "--procedures-target", "120", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "existing_epc" in out and "total=4" in out

    def test_sweep_unknown_config_rejected(self, capsys):
        assert main(["sweep", "--configs", "nope", "--no-cache"]) == 1
        assert "unknown config" in capsys.readouterr().out

    def test_sweep_bad_rates_rejected(self, capsys):
        assert main(["sweep", "--rates", "fast", "--no-cache"]) == 1
        assert "bad --rates" in capsys.readouterr().out


class TestFigureRunnerFlags:
    def test_figure_smoke_with_jobs_and_cache(self, tmp_path, capsys):
        argv = [
            "figure", "fig08", "--smoke", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "cache: hits=0" in out
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "misses=0 stale=0" in out

    def test_non_sweep_figure_has_no_cache_footer(self, capsys):
        assert main(["figure", "fig20"]) == 0
        assert "cache:" not in capsys.readouterr().out


class TestProfile:
    def test_profile_fig20_reports_hot_functions(self, capsys):
        assert main(["profile", "fig20", "--top", "10"]) == 0
        out = capsys.readouterr().out
        # The figure output still appears, followed by the pstats report.
        assert "InitialUEMessage" in out
        assert "top 10 functions by cumulative" in out
        assert "function calls" in out  # pstats header
        assert "encode" in out  # a codec hot function makes the top-10

    def test_profile_sort_and_output_dump(self, tmp_path, capsys):
        dump = tmp_path / "fig20.pstats"
        argv = ["profile", "fig20", "--top", "5", "--sort", "tottime",
                "--output", str(dump)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "top 5 functions by tottime" in out
        assert dump.exists() and dump.stat().st_size > 0

    def test_profile_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "fig99"])


class TestTrace:
    def test_trace_generation(self, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        assert main(
            ["trace", str(out_file), "--devices", "5", "--duration", "10"]
        ) == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) >= 5  # at least one attach per device
        assert "wrote" in capsys.readouterr().out


class TestScale:
    ARGS = ["scale", "steady-city", "--n-ue", "200", "--duration", "0.5"]

    def test_single_run_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "scenario steady-city" in out
        assert "violations=0" in out

    def test_json_output(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "steady-city"
        assert data["violations"] == 0

    def test_individual_mode(self, capsys):
        assert main(self.ARGS + ["--mode", "individual"]) == 0
        assert "mode=individual" in capsys.readouterr().out

    def test_obs_summary_line(self, capsys):
        assert main(self.ARGS + ["--obs"]) == 0
        out = capsys.readouterr().out
        assert "obs: spans=" in out and "mode=metrics" in out

    def test_replicates_cache_round_trip(self, tmp_path, capsys):
        argv = self.ARGS + ["--seeds", "1,2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed=2" in first and "cached=0" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "executed=0" in second and "cached=2" in second
        assert "replicates=2 violations=0" in second

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scale", "not-a-city"])


class TestScaleSharded:
    ARGS = [
        "scale", "steady-city", "--n-ue", "200", "--duration", "0.5",
        "--shards", "2", "--shard-backend", "inline",
    ]

    def test_sharded_run_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "violations=0" in out
        assert "shard 0:" in out and "shard 1:" in out

    def test_sharded_json_carries_perf_and_shards(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_shards"] == 2
        assert len(data["shards"]) == 2
        assert data["perf"]["backend"] == "inline"
        assert data["perf"]["lookahead_s"] > 0

    def test_shards_one_matches_unsharded_digest(self, capsys):
        base = [
            "scale", "steady-city", "--n-ue", "150", "--duration", "0.4",
            "--verbose-trace", "--json",
        ]
        import json

        assert main(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(base + ["--shards", "1"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert plain["digest"] == sharded["digest"]

    def test_sharded_obs_metrics_merges(self, capsys):
        assert main(self.ARGS + ["--obs"]) == 0
        out = capsys.readouterr().out
        assert "obs: spans=" in out and "mode=metrics" in out

    def test_too_many_shards_rejected(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--shards") + 1] = "99"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "level-2 regions" in err

    def test_individual_mode_shards(self, capsys):
        assert main(self.ARGS + ["--mode", "individual"]) == 0
        out = capsys.readouterr().out
        assert "mode=individual" in out and "shards=2" in out

    def test_incompatible_combos_rejected(self, capsys):
        assert main(self.ARGS + ["--seeds", "1,2"]) == 2
        assert "--seeds" in capsys.readouterr().err
        # per-run artifact flags make no sense across a seed sweep
        assert main(
            self.ARGS[:-4] + ["--seeds", "1,2", "--obs-stream", "-"]
        ) == 2
        assert "incompatible" in capsys.readouterr().err
        assert main(self.ARGS[:-2] + ["--shards", "bogus"]) == 2
        assert "integer or 'auto'" in capsys.readouterr().err

    def test_sharded_obs_trace_stitches(self, capsys, tmp_path, monkeypatch):
        # the PR 8 rejection is gone: sharded tracing stitches one trace
        monkeypatch.chdir(tmp_path)  # default --trace-out lands in cwd
        assert main(self.ARGS + ["--obs", "trace"]) == 0
        out = capsys.readouterr().out
        assert "mode=trace" in out
        assert "trace: wrote scale-steady-city.trace.json" in out
        assert (tmp_path / "scale-steady-city.trace.json").exists()


class TestOrchCompareBaseline:
    def test_run_with_no_attach_cell_prints_na(self, capsys):
        # 20 UEs for 50 ms complete no attach on either side, so both
        # p99s are None; PR <= 20 crashed in '"%.3fms" % None'.
        argv = [
            "orch", "steady-city", "--policy", '{"tick_s": 0.05}',
            "--compare-baseline", "--n-ue", "20", "--duration", "0.05",
        ]
        assert main(argv) == 0  # still the auditor verdict
        out = capsys.readouterr().out
        assert "worst-region n/a orchestrated vs n/a fixed-capacity" in out
        assert "-> NOT improved (baseline violations=0)" in out
