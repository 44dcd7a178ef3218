"""Command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.exec.cache import ResultCache
from repro.exec.grid import GridSpec, build_sim_config
from repro.exec.runner import SweepPointSpec, SweepRunner, TraceFileSpec
from repro.sim.faults import FaultPlan
from repro.util.errors import SweepError

EXAMPLE_FAULT_PLAN = Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"


class TestExperimentsCommand:
    def test_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("table1", "fig8", "write-behind"):
            assert exp_id in out


class TestRunCommand:
    def test_run_table2(self, capsys):
        assert main(["run", "table2", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "venus" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_reports_subsystem_metrics(self, capsys):
        assert main(["profile", "fig6", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        # the experiment report itself, then the per-subsystem tables
        assert "== metrics: fig6 ==" in out
        assert "sim.cache.hit_fraction" in out
        assert "sim.disk.device." in out  # per-device busy time
        assert "sim.sched.context_switches" in out
        assert "sim.engine.events_run" in out

    def test_profile_metrics_only_and_dumps(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        events = tmp_path / "events.jsonl"
        assert main(
            [
                "profile", "fig6", "--scale", "0.05", "--metrics-only",
                "--metrics-out", str(metrics),
                "--events-out", str(events),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "idle" not in out.split("== metrics")[0]  # report suppressed
        assert metrics.exists() and events.exists()
        assert "batched flush" in out

        import json

        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        names = {r["metric"] for r in rows}
        assert "sim.engine.events_run" in names
        evs = [json.loads(line) for line in events.read_text().splitlines()]
        assert any(e["kind"] == "simulation" for e in evs)

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main(
            ["run", "fig6", "--scale", "0.05", "--metrics-out", str(metrics)]
        ) == 0
        assert metrics.exists()
        assert "wrote" in capsys.readouterr().out


class TestGenerateAnalyze:
    def test_generate_then_analyze(self, tmp_path, capsys):
        trace_path = tmp_path / "ccm.trace"
        assert main(
            ["generate", "ccm", "-o", str(trace_path), "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert trace_path.exists()

        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "sequentiality:" in out
        assert "swap" in out  # ccm is swap-dominated

    def test_generate_unknown_app(self, tmp_path, capsys):
        assert main(["generate", "doom", "-o", str(tmp_path / "x")]) == 2
        assert "unknown application" in capsys.readouterr().err


class TestFiguresCommand:
    def test_figures_written(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out), "--scale", "0.1"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("wrote") == 10  # 5 figures x (svg + csv)
        assert (out / "fig3.svg").exists()
        assert (out / "fig8.csv").exists()


class TestSimulateCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "venus.trace"
        assert main(
            ["generate", "venus", "-o", str(path), "--scale", "0.1"]
        ) == 0
        return path

    def test_simulate_two_copies(self, trace_file, capsys):
        capsys.readouterr()
        assert main(
            [
                "simulate",
                str(trace_file),
                str(trace_file),
                "--cache-mb",
                "128",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "process 1" in out and "process 2" in out

    def test_shared_files_change_outcome(self, trace_file, capsys):
        # Sharing the data set means one copy's reads warm the cache for
        # the other: higher hit fraction than private copies.
        capsys.readouterr()
        base = ["simulate", str(trace_file), str(trace_file), "--cache-mb", "64"]
        assert main(base) == 0
        private = capsys.readouterr().out
        assert main(base + ["--share-files"]) == 0
        shared = capsys.readouterr().out

        def hits(text):
            for line in text.splitlines():
                if "cache hit fraction" in line:
                    return float(line.split(":")[1].split("%")[0])
            raise AssertionError("no hit line")

        assert hits(shared) > hits(private)

    def test_simulate_metrics_out(self, trace_file, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        capsys.readouterr()
        assert main(
            ["simulate", str(trace_file), "--metrics-out", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "utilization" in out and "wrote" in out
        assert metrics.exists()

    def test_simulate_cached_rerun_served_from_result_cache(
        self, trace_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
        argv = ["simulate", str(trace_file), "--cached"]
        capsys.readouterr()
        assert main(argv) == 0
        fresh_summary, fresh_tag = capsys.readouterr().out.rstrip().rsplit("\n", 1)
        assert main(argv) == 0
        warm_summary, warm_tag = capsys.readouterr().out.rstrip().rsplit("\n", 1)
        assert fresh_tag.startswith("[fresh simulation, key ")
        assert warm_tag == fresh_tag.replace("fresh simulation", "result cache")
        assert warm_summary == fresh_summary

    def test_fault_plan_file_keys_like_the_loaded_plan(
        self, trace_file, tmp_path, monkeypatch, capsys
    ):
        # The plan file enters the spec as its dict; the point must be the
        # one the loaded plan applied to the same config builds.
        results = tmp_path / "results"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(results))
        capsys.readouterr()
        assert main(
            [
                "simulate", str(trace_file), "--ssd", "--cache-mb", "16",
                "--fault-plan", str(EXAMPLE_FAULT_PLAN), "--cached",
            ]
        ) == 0
        config = FaultPlan.load(EXAMPLE_FAULT_PLAN).apply(
            build_sim_config(cache_mb=16, block_kb=4, ssd=True)
        )
        key = SweepPointSpec(
            workload=TraceFileSpec(paths=(str(trace_file),)), config=config
        ).key(None)
        out = capsys.readouterr().out.rstrip()
        assert out.endswith(f"[fresh simulation, key {key[:16]}]")
        assert ResultCache(results).get(key) is not None

    def test_simulate_ssd_options(self, trace_file, capsys):
        capsys.readouterr()
        assert main(
            [
                "simulate",
                str(trace_file),
                "--ssd",
                "--cache-mb",
                "256",
                "--no-read-ahead",
                "--cpus",
                "2",
            ]
        ) == 0
        assert "utilization" in capsys.readouterr().out


class TestTraceFileErrors:
    """A missing or malformed trace file is one stderr line and exit 2,
    never a traceback."""

    @pytest.fixture()
    def malformed(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("1 2 3\n")
        return path

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_missing_file(self, command, tmp_path, capsys):
        path = tmp_path / "absent.trace"
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "No such file" in err and str(path) in err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_malformed_file(self, command, malformed, capsys):
        assert main([command, str(malformed)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 1: record truncated" in err
        assert str(malformed) in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "128 0 -4096 4096 0 10 1 1 1 5\n128 0 -8192 4096 10 10 2 1 1 5\n",
                "line 1: negative offset -4096",
            ),
            ("128 0 0 4096 0 10 1 1 1 -5\n", "line 1: negative process_time -5"),
            (
                "128 0 0 4096 0 10 1 4294967301 1 5\n",
                "line 1: fileId 4294967301 out of range",
            ),
        ],
        ids=["negative-offset", "negative-process-time", "file-id-past-uint32"],
    )
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_unrepresentable_record(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"{path}: {message}\n"


class TestConfigRange:
    """An out-of-range or non-finite cache geometry, CPU count or sweep
    copy count is one stderr line naming the value and exit 2, before
    anything runs."""

    @pytest.mark.parametrize(
        "command, flags, field, value",
        [
            pytest.param(command, flags, field, value, id=f"{command}-{name}")
            for command in ("simulate", "sweep")
            for name, flags, field, value in [
                ("cache-mb-neg", ["--cache-mb", "-4"], "size_bytes", -4194304),
                ("cache-mb-0", ["--cache-mb", "0"], "size_bytes", 0),
                ("block-kb-0", ["--block-kb", "0"], "block_bytes", 0),
                ("cpus-0", ["--cpus", "0"], "n_cpus", 0),
                ("cache-mb-inf", ["--cache-mb", "inf"], "cache_mb", "inf"),
                ("block-kb-inf", ["--block-kb", "inf"], "block_kb", "inf"),
            ]
        ]
        + [
            pytest.param(
                "sweep", ["--copies", copies], "n_copies", copies,
                id=f"sweep-copies-{copies}",
            )
            for copies in ("0", "-1")
        ],
    )
    def test_rejected_before_running(
        self, command, flags, field, value, tmp_path, capsys
    ):
        results = tmp_path / "results"
        argv = {
            "simulate": ["simulate", str(tmp_path / "absent.trace")],
            "sweep": [
                "sweep", "--scale", "0.05", "--cache-mb", "8", "--block-kb", "4",
                "--jobs", "1", "--cache-dir", str(results),
            ],
        }[command]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert field in err and err.endswith(f": {value}\n")
        assert not results.exists()


class TestSweepCommand:
    def test_cache_dir_rerun_from_cache_and_no_cache_recomputes(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        cache_dir = tmp_path / "results"
        argv = [
            "sweep", "--scale", "0.05", "--cache-mb", "8", "--block-kb", "4",
            "--jobs", "1", "--cache-dir", str(cache_dir),
        ]

        def footer(extra=()):
            capsys.readouterr()
            assert main(argv + list(extra)) == 0
            return capsys.readouterr().out.rstrip().splitlines()[-1]

        assert "1 simulated, 0 from cache" in footer()
        assert len(ResultCache(cache_dir)) == 1
        assert "0 simulated, 1 from cache" in footer()
        assert "1 simulated" in footer(["--no-cache"])

    def test_unset_flags_take_the_grid_spec_defaults(self, monkeypatch, capsys):
        seen = []

        def run(self, points):
            seen.extend(points)
            raise SweepError("stop before simulating")

        monkeypatch.setattr(SweepRunner, "run", run)
        assert main(["sweep", "--no-cache", "--jobs", "1"]) == 1
        assert [p.key(None) for p in seen] == [
            p.key(None) for p in GridSpec().points()
        ]

    @pytest.mark.parametrize(
        "scale, shown",
        [("0", "0.0"), ("-1", "-1.0"), ("2", "2.0"), ("1e400", "inf")],
        ids=["zero", "negative", "above-one", "1e400"],
    )
    def test_scale_outside_unit_interval_exits_2(self, scale, shown, tmp_path, capsys):
        results = tmp_path / "results"
        argv = [
            "sweep", "--scale", scale, "--cache-mb", "8", "--block-kb", "4",
            "--jobs", "1", "--cache-dir", str(results),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"bad grid: scale must be in (0, 1], got {shown}\n"
        assert not results.exists()


class TestScaleOption:
    """Every verb with ``--scale`` rejects one outside (0, 1] while parsing."""

    @pytest.mark.parametrize("value, shown", [("0", "0.0"), ("nan", "nan")])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig8"],
            ["profile", "fig8", "--metrics-only"],
            ["generate", "venus", "-o", "{out}"],
            ["figures", "--out", "{out}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_scale_is_a_usage_error(self, argv, value, shown, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [str(out) if arg == "{out}" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scale", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument --scale: scale must be in (0, 1], got {shown}\n"
        )
        assert "Traceback" not in err
        assert not out.exists()


class TestJobsOption:
    # argparse rejects the value, so no runner or server is ever built.
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig8", "--jobs"],
            ["sweep", "--jobs"],
            ["serve", "--workers"],
            ["serve", "--queue-size"],
        ],
        ids=["run", "sweep", "serve-workers", "serve-queue-size"],
    )
    def test_nonpositive_jobs_is_a_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-1]}: must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["70000", "-1"])
    def test_port_outside_range_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--port: must be an integer in [0, 65535], got '{value}'" in err
        assert "Traceback" not in err

    def test_sweep_bad_env_jobs_exits_2_naming_the_variable(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert main(["sweep", "--no-cache"]) == 2
        assert "$REPRO_JOBS" in capsys.readouterr().err
