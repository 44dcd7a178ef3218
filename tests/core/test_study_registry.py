"""The Study facade and experiment registry."""

import pytest

from repro.core import EXPERIMENTS, Study, run_experiment


@pytest.fixture(scope="module")
def study():
    return Study(scale=0.1)


class TestStudy:
    def test_workloads_cached(self, study):
        a = study.workload("venus")
        b = study.workload("venus")
        assert a is b

    def test_tables_render(self, study):
        t1 = study.table1()
        t2 = study.table2()
        for name in ("bvi", "venus", "upw"):
            assert name in t1 and name in t2
        assert "paper" in t1

    def test_figures_3_4(self, study):
        fig3 = study.app_rate_series("venus")
        fig4 = study.app_rate_series("les")
        assert fig3.peak > 60  # venus bursts
        assert fig4.peak > 60  # les bursts
        assert study.cycles("venus").is_cyclic

    def test_default_scales_used(self):
        s = Study()
        assert s.app_scale("bvi") < s.app_scale("venus")

    def test_figures_share_one_generation(self, tmp_path, monkeypatch):
        # Figure 3 analyzes venus and Figure 6 replays it: one memo, so
        # one generation.  The empty cache dir leaves nothing on disk to
        # stand in for a generation.
        from repro.exec.runner import clear_workload_memo
        from repro.workloads.base import ApplicationModel

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        generated = []
        real_generate = ApplicationModel.generate

        def counting(model, **kwargs):
            generated.append(model.name)
            return real_generate(model, **kwargs)

        monkeypatch.setattr(ApplicationModel, "generate", counting)
        clear_workload_memo()
        study = Study(scale=0.05)
        study.app_rate_series("venus")
        study.figure6()
        clear_workload_memo()
        assert generated == ["venus"]

    def test_seed_controls_generation(self):
        a = Study(scale=0.1, seed=1).workload("ccm")
        b = Study(scale=0.1, seed=2).workload("ccm")
        assert (a.trace.start_time != b.trace.start_time).any()


class TestRegistry:
    def test_all_experiments_present(self):
        expected = {
            "table1",
            "table2",
            "fig3",
            "fig4",
            "fig6",
            "fig7",
            "fig8",
            "policy-sweep",
            "ssd-utilization",
            "write-behind",
            "n-plus-one",
            "batch-tradeoff",
            "mss-staging",
            "fault-sweep",
        }
        assert set(EXPERIMENTS) == expected
        for exp in EXPERIMENTS.values():
            assert exp.title
            assert exp.paper_section

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_run_table_experiments(self, study):
        out = run_experiment("table1", study)
        assert "Table 1" in out
        out = run_experiment("table2", study)
        assert "Table 2" in out

    def test_run_figure_experiment(self, study):
        out = run_experiment("fig3", study)
        assert "venus" in out
        assert "peak" in out
