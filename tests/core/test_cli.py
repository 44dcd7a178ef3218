"""Command-line interface."""

import pytest

from repro.cli import main


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
