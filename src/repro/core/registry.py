"""Experiment registry: every table, figure and claim, addressable by id.

``run_experiment("fig8")`` reproduces Figure 8 and returns a rendered
text report; ``EXPERIMENTS`` is the index DESIGN.md's per-experiment
table promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.study import Study
from repro.util.asciiplot import ascii_bar_plot, ascii_line_plot
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper."""

    exp_id: str
    title: str
    paper_section: str
    runner: Callable[[Study], str]

    def run(self, study: Study | None = None) -> str:
        return self.runner(study if study is not None else Study())


def _table1(study: Study) -> str:
    return study.table1()


def _table2(study: Study) -> str:
    return study.table2()


def _app_figure(name: str, fig: str):
    def run(study: Study) -> str:
        series = study.app_rate_series(name)
        cyc = study.cycles(name)
        plot = ascii_line_plot(
            series.times,
            series.rates,
            title=f"{fig}: data rate over time for {name}",
            x_label="process CPU time (s)",
            y_label="MB per CPU second",
        )
        lines = [
            plot,
            f"peak {series.peak:.1f} MB/s, mean {series.mean:.1f} MB/s, "
            f"burstiness {series.burstiness():.2f}",
        ]
        if cyc.is_cyclic:
            lines.append(
                f"detected cycle: {cyc.period_seconds:.1f} s "
                f"(similarity {cyc.cycle_similarity:.2f})"
            )
        return "\n".join(lines)

    return run


def _sim_figure(ssd: bool, cache_mb: int, fig: str):
    def run(study: Study) -> str:
        r = study.figure7() if ssd else study.figure6()
        rate = r.result.disk_rate
        plot = ascii_line_plot(
            rate.times,
            rate.rates,
            title=f"{fig}: disk traffic, 2 x venus, {cache_mb} MB "
            f"{'SSD' if ssd else 'memory'} cache",
            x_label="wall time (s)",
            y_label="MB/s to disk",
        )
        return "\n".join([plot, r.result.summary()])

    return run


def _figure8(study: Study) -> str:
    points = study.figure8()
    table = TextTable(
        ["block", "cache(MB)", "idle(s)", "utilization", "hit%"],
        title="Figure 8: idle time, two venus instances, by cache size",
    )
    for p in points:
        table.add_row(
            [
                f"{p.block_kb:g}K",
                p.cache_mb,
                round(p.idle_seconds, 2),
                f"{p.utilization:.1%}",
                f"{p.hit_fraction:.1%}",
            ]
        )
    by4k = [p for p in points if p.block_kb == 4]
    bars = ascii_bar_plot(
        [f"{p.cache_mb:g}MB" for p in by4k],
        [p.idle_seconds for p in by4k],
        title="idle seconds (4K blocks)",
    )
    return "\n\n".join([table.render(), bars])


def _ssd_claim(study: Study) -> str:
    runs = study.ssd_runs()
    table = TextTable(
        ["app", "utilization", "warm util", "idle(s)", "hit%"],
        title="Section 6.3: per-application CPU utilization with a 256 MB SSD cache",
    )
    for r in runs:
        table.add_row(
            [
                r.name,
                f"{r.utilization:.2%}",
                f"{r.warm_utilization:.2%}",
                round(r.idle_seconds, 2),
                f"{r.hit_fraction:.1%}",
            ]
        )
    worst = min(runs, key=lambda r: r.utilization)
    return "\n".join(
        [
            table.render(),
            f'paper: "all but one ... nearly completely utilized"; '
            f"lowest here: {worst.name} at {worst.utilization:.1%}",
        ]
    )


def _writebehind_claim(study: Study) -> str:
    without, with_wb = study.writebehind()
    return "\n".join(
        [
            "Section 6.2: write-behind ablation (2 x venus, 128 MB cache)",
            f"  without write-behind: idle {without.idle_seconds:8.2f} s "
            f"(utilization {without.utilization:.1%})",
            f"  with    write-behind: idle {with_wb.idle_seconds:8.2f} s "
            f"(utilization {with_wb.utilization:.1%})",
            '  paper: "writebehind reduced idle time from 211 seconds to 1 second"',
        ]
    )


def _n_plus_one(study: Study) -> str:
    from repro.sim.experiments import n_plus_one_rule

    scale = study.app_scale("venus")
    io_bound = n_plus_one_rule(app="venus", n_cpus=2, max_extra_jobs=2, scale=scale)
    compute = n_plus_one_rule(
        app="upw", n_cpus=2, max_extra_jobs=1, scale=min(0.3, 3 * scale)
    )
    table = TextTable(
        ["workload", "CPUs", "jobs", "utilization"],
        title="Section 2.2: the n+1 multiprogramming rule",
    )
    for p in compute:
        table.add_row(["upw (compute-bound)", p.n_cpus, p.n_jobs, f"{p.utilization:.1%}"])
    for p in io_bound:
        table.add_row(["venus (I/O-bound)", p.n_cpus, p.n_jobs, f"{p.utilization:.1%}"])
    return "\n".join(
        [
            table.render(),
            'paper: "n+1 jobs resident in main memory will keep n processors '
            'busy, given a typical supercomputer workload ... If all currently '
            "in-memory programs make many I/O requests, it is likely that more "
            'than one will be awaiting I/O all the time."',
        ]
    )


def _batch_tradeoff(study: Study) -> str:
    from repro.batch import venus_design_tradeoff

    loaded = venus_design_tradeoff()
    empty = venus_design_tradeoff(background_large_jobs=0)
    return "\n".join(
        [
            "Section 2.2: memory-sized batch queues (the venus incentive)",
            "loaded machine:",
            str(loaded),
            "empty machine:",
            str(empty),
        ]
    )


def _buffering_sweep(study: Study) -> str:
    """The what-if grid the paper could not afford to run exhaustively:
    cache size x read-ahead x write-behind, via the parallel sweep runner.
    """
    from repro.exec.grid import GridSpec, render_sweep_table, sweep_summary
    from repro.exec.runner import SweepRunner

    grid = GridSpec(
        scale=study.app_scale("venus"),
        workload_seed=study.seed,
        cache_sizes_mb=(32, 128),
        block_sizes_kb=(4,),
        read_ahead=(True, False),
        write_behind=(True, False),
    )
    runner = SweepRunner(jobs=study.jobs)
    results = runner.run(grid.points())
    return "\n".join(
        [
            render_sweep_table(
                results,
                title="Buffering-policy sweep: 2 x venus, "
                "cache size x read-ahead x write-behind",
            ),
            sweep_summary(results),
        ]
    )


def _fault_sweep(study: Study) -> str:
    """Utilization decay under device fault rates -- the new experiment
    family the fault layer unlocks (not in the paper, which assumed
    perfectly reliable devices).
    """
    from repro.sim.experiments import fault_rate_sweep

    points = fault_rate_sweep(scale=study.app_scale("venus"), jobs=study.jobs)
    table = TextTable(
        ["err rate", "utilization", "idle(s)", "retries", "failed", "lost(MB)", "goodput(MB)"],
        title="Fault sweep: 2 x venus, 32 MB SSD cache, transient error rate",
    )
    for p in points:
        table.add_row(
            [
                f"{p.error_rate:g}",
                f"{p.utilization:.1%}",
                round(p.idle_seconds, 2),
                p.retries,
                p.failed_ios,
                round(p.lost_mb, 2),
                round(p.goodput_mb, 1),
            ]
        )
    base, worst = points[0], points[-1]
    return "\n".join(
        [
            table.render(),
            f"utilization {base.utilization:.1%} fault-free -> "
            f"{worst.utilization:.1%} at error rate {worst.error_rate:g} "
            f"({worst.retries} backoff retries; {worst.recovered} requests "
            f"recovered after retrying)",
        ]
    )


def _mss_staging(study: Study) -> str:
    from repro.mss.staging import stage_workload

    table = TextTable(
        ["app", "files", "MB", "1 drive (s)", "4 drives (s)"],
        title="Section 2.2: staging data sets from nearline tape",
    )
    for name in ("venus", "les", "ccm"):
        w = study.workload(name)
        one = stage_workload(w, n_drives=1)
        four = stage_workload(w, n_drives=4)
        table.add_row(
            [
                name,
                one.n_files,
                round(one.total_bytes / 2**20),
                round(one.ready_at_s, 1),
                round(four.ready_at_s, 1),
            ]
        )
    return table.render()


EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in [
        Experiment("table1", "Characteristics of the traced applications", "5", _table1),
        Experiment("table2", "I/O request rates and data rates", "5.2", _table2),
        Experiment("fig3", "Data rate over time for venus", "5.3", _app_figure("venus", "Figure 3")),
        Experiment("fig4", "Data rate over time for les", "5.3", _app_figure("les", "Figure 4")),
        Experiment("fig6", "2 x venus, 32 MB cache", "6.2", _sim_figure(False, 32, "Figure 6")),
        Experiment("fig7", "2 x venus, 128 MB SSD cache", "6.3", _sim_figure(True, 128, "Figure 7")),
        Experiment("fig8", "Idle time vs cache size", "6.4", _figure8),
        Experiment(
            "policy-sweep",
            "Cache size x read-ahead x write-behind grid",
            "6.2",
            _buffering_sweep,
        ),
        Experiment("ssd-utilization", "Per-app utilization on the SSD", "6.3", _ssd_claim),
        Experiment("write-behind", "Write-behind idle-time ablation", "6.2", _writebehind_claim),
        Experiment("n-plus-one", "The n+1 multiprogramming rule", "2.2", _n_plus_one),
        Experiment("batch-tradeoff", "Memory-sized batch queues", "2.2", _batch_tradeoff),
        Experiment("mss-staging", "Staging data sets from nearline tape", "2.2", _mss_staging),
        Experiment(
            "fault-sweep",
            "Utilization vs device fault rate under retry/backoff recovery",
            "6 (extension)",
            _fault_sweep,
        ),
    ]
}


def run_experiment(exp_id: str, study: Study | None = None) -> str:
    """Run one experiment by id and return its rendered report."""
    try:
        experiment = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.run(study)
