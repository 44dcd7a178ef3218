"""Job spec parsing: HTTP bodies must build exactly the CLI's points."""

import json

import pytest

from repro.exec.grid import GridSpec, SpecError, build_sim_config
from repro.exec.runner import TraceFileSpec
from repro.serve.jobs import JobState, parse_job, MAX_RUNNER_JOBS
from repro.util.rng import DEFAULT_SEED


#: Out-of-range or non-finite cache geometry and CPU counts, with the
#: error naming each.  JSON reads an overflowing number such as 1e400 as
#: infinity, and the spec parser reads an integer past the float range
#: the same way.
OUT_OF_RANGE = [
    ({"block_kb": 0}, "block_bytes must be > 0: 0"),
    ({"cache_mb": -4}, "size_bytes must be >= block_bytes"),
    ({"cpus": 0}, "n_cpus must be >= 1: 0"),
    (json.loads('{"cache_mb": 1e400}'), "cache_mb must be finite: inf"),
    (json.loads('{"block_kb": 1e400}'), "block_kb must be finite: inf"),
    ({"cache_mb": 10**400}, "cache_mb must be finite: inf"),
]


def sweep_body(**spec):
    return {"kind": "sweep", "spec": spec}


class TestSweepSpec:
    def test_points_match_grid_spec_exactly(self):
        """The bit-identity root: an HTTP sweep body and the equivalent
        ``repro sweep`` flags must produce the same point keys."""
        job = parse_job(
            sweep_body(
                app="venus", copies=2, scale=0.05,
                cache_mb=[8, 32], block_kb="4,8",
                read_ahead="on,off",
            ),
            "j000001",
        )
        grid = GridSpec(
            app="venus", n_copies=2, scale=0.05,
            cache_sizes_mb=(8.0, 32.0), block_sizes_kb=(4.0, 8.0),
            read_ahead=(True, False),
        )
        expected = grid.points()
        assert len(job.points) == len(expected) == 8
        assert [p.key(None) for p in job.points] == [
            p.key(None) for p in expected
        ]
        assert [p.label for p in job.points] == [p.label for p in expected]

    def test_defaults_are_the_cli_defaults(self):
        job = parse_job(sweep_body(), "j000001")
        grid = GridSpec()  # repro sweep defaults mirror GridSpec defaults
        assert len(job.points) == 14
        assert job.points[0].key(None) == grid.points()[0].key(None)
        assert job.state is JobState.QUEUED
        assert job.runner_jobs == 1

    def test_scalar_axes_accepted(self):
        job = parse_job(
            sweep_body(cache_mb=16, block_kb=4.0, read_ahead=False),
            "j000001",
        )
        assert len(job.points) == 1
        assert job.points[0].config.cache.read_ahead is False

    def test_unknown_app_rejected(self):
        with pytest.raises(SpecError, match="unknown application"):
            parse_job(sweep_body(app="fortran77"), "j000001")

    def test_bad_axis_rejected(self):
        with pytest.raises(SpecError, match="cache_mb"):
            parse_job(sweep_body(cache_mb="four,eight"), "j000001")
        with pytest.raises(SpecError, match="read_ahead"):
            parse_job(sweep_body(read_ahead="maybe"), "j000001")
        for spec, named in OUT_OF_RANGE:
            with pytest.raises(SpecError, match=named):
                parse_job(sweep_body(**spec), "j000001")

    @pytest.mark.parametrize(
        "scale, shown",
        [(0, "0.0"), (-1, "-1.0"), (2, "2.0"), (json.loads("1e400"), "inf")],
        ids=["zero", "negative", "above-one", "1e400"],
    )
    def test_scale_outside_unit_interval_rejected(self, scale, shown):
        # Rejected at submission, with the workload models' message, not
        # when the first point runs in a worker.
        with pytest.raises(SpecError) as info:
            parse_job(sweep_body(scale=scale), "j000001")
        assert str(info.value) == f"bad grid: scale must be in (0, 1], got {shown}"

    @pytest.mark.parametrize("copies", [0, -1])
    def test_copies_below_one_rejected(self, copies):
        # Rejected at submission, not as a one-point job whose worker
        # finds no trace to run.
        with pytest.raises(SpecError) as info:
            parse_job(sweep_body(copies=copies), "j000001")
        assert str(info.value) == f"bad grid: n_copies must be >= 1: {copies}"


class TestSimulateSpec:
    def test_workload_and_config_mirror_the_cli(self):
        job = parse_job(
            {
                "kind": "simulate",
                "spec": {
                    "traces": ["/tmp/a.trc", "/tmp/b.trc"],
                    "cache_mb": 64, "block_kb": 8, "ssd": True,
                    "share_files": True, "trace_store": True,
                },
            },
            "j000002",
        )
        (point,) = job.points
        # The retired ``trace_store`` key is ignored like any unknown key.
        assert point.workload == TraceFileSpec(
            paths=("/tmp/a.trc", "/tmp/b.trc"), share_files=True
        )
        assert point.config == build_sim_config(
            cache_mb=64, block_kb=8, ssd=True
        )

    def test_inline_faults_applied(self):
        job = parse_job(
            {
                "kind": "simulate",
                "spec": {"traces": ["/tmp/a.trc"],
                         "faults": "error=0.05,max_retries=4"},
            },
            "j000003",
        )
        assert job.points[0].config.faults is not None

    def test_faults_and_plan_conflict(self):
        with pytest.raises(SpecError, match="not both"):
            parse_job(
                {
                    "kind": "simulate",
                    "spec": {"traces": ["/t"], "faults": "error=0.1",
                             "fault_plan": {"faults": {}}},
                },
                "j000004",
            )

    @pytest.mark.parametrize(
        "spec, named",
        OUT_OF_RANGE,
        ids=[
            "block-kb-0", "cache-mb-neg", "cpus-0", "cache-mb-inf", "block-kb-inf",
            "cache-mb-huge-int",
        ],
    )
    def test_out_of_range_config_rejected(self, spec, named):
        body = {"kind": "simulate", "spec": {"traces": ["/t"], **spec}}
        with pytest.raises(SpecError, match=named):
            parse_job(body, "j000006")

    def test_traces_required(self):
        with pytest.raises(SpecError, match="traces"):
            parse_job({"kind": "simulate", "spec": {}}, "j000005")


class TestEnvelope:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown job kind"):
            parse_job({"kind": "compile"}, "j000001")

    def test_bad_priority(self):
        with pytest.raises(SpecError, match="priority"):
            parse_job(sweep_body() | {"priority": "urgent"}, "j000001")

    def test_jobs_bound_enforced(self):
        with pytest.raises(SpecError, match="jobs"):
            parse_job(sweep_body(jobs=MAX_RUNNER_JOBS + 1), "j000001")
        with pytest.raises(SpecError, match="jobs"):
            parse_job(sweep_body(jobs=0), "j000001")

    def test_non_object_spec(self):
        with pytest.raises(SpecError, match="spec"):
            parse_job({"kind": "sweep", "spec": [1]}, "j000001")

    def test_seed_defaults_to_default_seed(self):
        job = parse_job(sweep_body(cache_mb=8, block_kb=4), "j000001")
        assert job.points[0].workload.seed == DEFAULT_SEED



#: Toggle spellings a spec may use, and the value each one means.
TOGGLE_VALUES = [
    (True, True), (False, False), ("on", True), ("off", False),
    ("true", True), ("false", False), ("1", True), ("0", False),
    ("yes", True), ("NO", False),
]

#: Values no toggle key accepts: not a JSON boolean, or not one toggle.
BAD_TOGGLES = ["maybe", "", "on,off", 1, 0, None, 2.5, ["off"], {"on": 1}]

#: Every boolean key of a ``simulate`` spec.
SIMULATE_TOGGLES = ("ssd", "read_ahead", "write_behind", "share_files", "result_cache")


def simulate_body(**spec):
    return {"kind": "simulate", "spec": {"traces": ["/t"], **spec}}


class TestToggles:
    """Every boolean spec key reads a toggle as ``parse_toggles`` does."""

    def test_simulate_toggles(self):
        for value, meaning in TOGGLE_VALUES:
            job = parse_job(
                simulate_body(**{key: value for key in SIMULATE_TOGGLES}), "j000007"
            )
            (point,) = job.points
            assert point.config == build_sim_config(
                cache_mb=32, block_kb=4, ssd=meaning, read_ahead=meaning,
                write_behind=meaning,
            )
            assert point.workload.share_files is meaning
            assert job.use_result_cache is meaning

    def test_read_ahead_off_string(self):
        (point,) = parse_job(simulate_body(read_ahead="off"), "j000008").points
        assert point.config.cache.read_ahead is False
        assert point.config.cache.write_behind is True

    @pytest.mark.parametrize("key", SIMULATE_TOGGLES)
    def test_simulate_rejects_bad_toggles(self, key):
        for value in BAD_TOGGLES:
            with pytest.raises(SpecError, match=key):
                parse_job(simulate_body(**{key: value}), "j000009")

    def test_sweep_toggles(self):
        for value, meaning in TOGGLE_VALUES:
            job = parse_job(
                sweep_body(
                    cache_mb=8, block_kb=4, ssd=value, read_ahead=[value],
                    write_behind=[value, not meaning], result_cache=value,
                ),
                "j000010",
            )
            grid = GridSpec(
                cache_sizes_mb=(8.0,), block_sizes_kb=(4.0,), ssd=meaning,
                read_ahead=(meaning,), write_behind=(meaning, not meaning),
            )
            assert [p.key(None) for p in job.points] == [
                p.key(None) for p in grid.points()
            ]
            assert job.use_result_cache is meaning

    @pytest.mark.parametrize("key", ["read_ahead", "write_behind"])
    def test_sweep_rejects_bad_toggle_elements(self, key):
        for value in BAD_TOGGLES:
            with pytest.raises(SpecError, match=key):
                parse_job(sweep_body(**{key: [True, value]}), "j000011")
        with pytest.raises(SpecError, match=key):
            parse_job(sweep_body(**{key: [True, "on"]}), "j000012")

    @pytest.mark.parametrize("key", ["ssd", "result_cache"])
    def test_sweep_rejects_bad_scalar_toggles(self, key):
        for value in BAD_TOGGLES:
            with pytest.raises(SpecError, match=key):
                parse_job(sweep_body(**{key: value}), "j000013")


#: Values no integer key accepts: a JSON boolean, a string, a fraction,
#: or anything else that is not a whole number.
BAD_INTEGERS = [True, False, "7", "", 2.5, None, [2], {"n": 2}]

#: Values no number key accepts.
BAD_NUMBERS = [True, False, "7", None, [2], {"n": 2}]

#: Values no number axis accepts: an element that is not a number.
BAD_AXES = [True, False, None, [], [True], [8, False], [8, None], [8, "16"], {"mb": 8}]

#: Every numeric key, with the values it rejects: a ``simulate`` or
#: ``sweep`` spec key, or a key of the body itself.
NUMERIC_KEYS = [
    ("simulate", "cpus", BAD_INTEGERS),
    ("simulate", "jobs", BAD_INTEGERS),
    ("simulate", "cache_mb", BAD_NUMBERS),
    ("simulate", "block_kb", BAD_NUMBERS),
    ("sweep", "copies", BAD_INTEGERS),
    ("sweep", "seed", BAD_INTEGERS),
    ("sweep", "cpus", BAD_INTEGERS),
    ("sweep", "jobs", BAD_INTEGERS),
    ("sweep", "scale", BAD_NUMBERS),
    ("sweep", "cache_mb", BAD_AXES),
    ("sweep", "block_kb", BAD_AXES),
    ("envelope", "priority", BAD_INTEGERS),
]


class TestNumbers:
    """Integer keys take a JSON integer and number keys a JSON number;
    anything else is a 400 naming the key."""

    def test_whole_numbers_accepted(self):
        body = sweep_body(copies=3.0, seed=7.0, cpus=2, jobs=2.0, scale=1, cache_mb=8)
        job = parse_job(body | {"priority": 2.0}, "j000014")
        grid = GridSpec(
            n_copies=3, workload_seed=7, n_cpus=2, scale=1.0, cache_sizes_mb=(8,)
        )
        assert [p.key(None) for p in job.points] == [p.key(None) for p in grid.points()]
        assert (job.priority, job.runner_jobs) == (2, 2)

    @pytest.mark.parametrize(
        "kind, key, values",
        NUMERIC_KEYS,
        ids=[f"{kind}-{key}" for kind, key, _ in NUMERIC_KEYS],
    )
    def test_rejects_values_of_the_wrong_kind(self, kind, key, values):
        body = {
            "simulate": simulate_body,
            "sweep": sweep_body,
            "envelope": lambda **envelope: sweep_body() | envelope,
        }[kind]
        for value in values:
            with pytest.raises(SpecError, match=key):
                parse_job(body(**{key: value}), "j000015")
