"""Property-based tests for the recovery layer.

Generated fault schedules and recovery policies, three invariants:

(a) **no lost events** -- every application I/O eventually completes or
    is reported failed: the simulation always drains, every process
    always finishes (crashes excluded by construction here);
(b) **bounded retries** -- no request ever consumes more than
    ``max_retries`` retries (``max_attempts <= max_retries + 1``);
(c) **monotone backoff** -- successive backoff delays never shrink, and
    never exceed the cap, for any jitter draws.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.sim.config import CacheConfig, RecoveryConfig, SimConfig  # noqa: E402
from repro.sim.recovery import backoff_delay  # noqa: E402
from repro.sim.system import simulate  # noqa: E402
from repro.trace import flags as F  # noqa: E402
from repro.trace.array import TraceArray  # noqa: E402
from repro.util.units import KB, MB  # noqa: E402


def mixed_trace(n_ios, *, length=32 * KB):
    """Alternating read/write trace over two files."""
    rts = np.array(
        [F.make_record_type(write=bool(i % 2), logical=True) for i in range(n_ios)]
    )
    clock = np.cumsum(np.full(n_ios, 1000))
    return TraceArray.from_columns(
        record_type=rts,
        file_id=np.where(np.arange(n_ios) % 2, 2, 1),
        process_id=np.full(n_ios, 1),
        operation_id=np.arange(n_ios),
        offset=(np.arange(n_ios) // 2) * length,
        length=np.full(n_ios, length),
        start_time=clock,
        duration=np.zeros(n_ios),
        process_clock=clock,
    )


#: One compact strategy for a "hostile but legal" fault environment.
fault_env = st.fixed_dictionaries(
    {
        "error_rate": st.floats(0.0, 0.6),
        "slow_rate": st.floats(0.0, 0.3),
        "slow_factor": st.floats(1.0, 20.0),
        "fault_seed": st.integers(0, 2**31),
        "max_retries": st.integers(0, 5),
        "timeout_s": st.one_of(st.none(), st.floats(0.01, 1.0)),
        "max_reflushes": st.integers(0, 3),
        "n_ios": st.integers(2, 24),
    }
)


def _config(env):
    return (
        SimConfig(cache=CacheConfig(size_bytes=4 * MB))
        .with_faults(
            error_rate=env["error_rate"],
            slow_rate=min(env["slow_rate"], 1.0 - env["error_rate"]),
            slow_factor=env["slow_factor"],
            seed=env["fault_seed"],
        )
        .with_recovery(
            max_retries=env["max_retries"],
            timeout_s=env["timeout_s"],
            max_reflushes=env["max_reflushes"],
        )
    )


class TestNoLostEvents:
    @settings(max_examples=40, deadline=None)
    @given(env=fault_env)
    def test_every_io_completes_or_is_reported_failed(self, env):
        trace = mixed_trace(env["n_ios"])
        r = simulate([trace], _config(env), max_events=200_000)
        # The process replayed its whole trace: nothing hung forever on
        # a failed device request.
        assert r.processes[1].finished
        assert r.processes[1].n_ios == env["n_ios"]
        # Accounting is consistent: everything that went in came out as
        # either delivered or explicitly failed bytes.
        total = r.cache.read_bytes + r.cache.write_bytes
        assert 0 <= r.goodput_bytes <= total

    @settings(max_examples=20, deadline=None)
    @given(env=fault_env)
    def test_deterministic_under_repetition(self, env):
        trace = mixed_trace(env["n_ios"])
        a = simulate([trace], _config(env), max_events=200_000)
        b = simulate([trace], _config(env), max_events=200_000)
        assert a.digest() == b.digest()


class TestBoundedRetries:
    @settings(max_examples=40, deadline=None)
    @given(env=fault_env)
    def test_retry_count_never_exceeds_max_retries(self, env):
        trace = mixed_trace(env["n_ios"])
        r = simulate([trace], _config(env), max_events=200_000)
        assert r.faults.max_attempts <= env["max_retries"] + 1
        if env["max_retries"] == 0:
            assert r.faults.retries == 0


recovery_params = st.fixed_dictionaries(
    {
        "base": st.floats(1e-5, 0.1),
        "factor": st.floats(1.0, 8.0),
        "cap": st.floats(1e-4, 10.0),
        "jitter_frac": st.floats(0.0, 1.0),
        "attempts": st.integers(1, 12),
    }
)


#: One jitter draw per attempt (``recovery_params`` allows up to 12).
jitter_draws = st.lists(
    st.floats(0.0, 1.0, exclude_max=True), min_size=12, max_size=12
)


class TestMonotoneBackoff:
    @settings(max_examples=200, deadline=None)
    @given(params=recovery_params, draws=jitter_draws)
    # Last-ulp rounding once made delay(1) = 0.023437500000000014 exceed
    # delay(2) = 0.02343750000000001 with a factor a hair above 1.
    @example(
        params={
            "base": 0.0234375,
            "factor": 1.0 + 2.0**-52,
            "cap": 1.0,
            "jitter_frac": 0.5187,
            "attempts": 3,
        },
        draws=[0.0, 0.999999] + [0.0] * 10,
    )
    def test_delays_monotone_nondecreasing_up_to_cap(self, params, draws):
        # Any jitter fraction the config validator admits: the sequence
        # of delays must never shrink, whatever the draws.
        jitter = params["jitter_frac"] * (params["factor"] - 1.0)
        cfg = RecoveryConfig(
            backoff_base_s=params["base"],
            backoff_factor=params["factor"],
            backoff_cap_s=params["cap"],
            backoff_jitter=jitter,
        )
        draws = draws[: params["attempts"]]
        delays = [backoff_delay(cfg, i, u) for i, u in enumerate(draws)]
        for earlier, later in zip(delays, delays[1:]):
            assert later >= earlier
        for d in delays:
            assert 0.0 < d <= cfg.backoff_cap_s

    def test_cap_reached_and_held(self):
        cfg = RecoveryConfig(
            backoff_base_s=1e-3, backoff_factor=2.0, backoff_cap_s=0.01,
            backoff_jitter=0.0,
        )
        delays = [backoff_delay(cfg, i, 0.0) for i in range(10)]
        assert delays[-1] == cfg.backoff_cap_s
        assert delays == sorted(delays)

    def test_jitter_validation_guards_monotonicity(self):
        # The monotonicity proof needs jitter <= factor - 1; the config
        # constructor enforces exactly that.
        with pytest.raises(ValueError):
            RecoveryConfig(backoff_factor=2.0, backoff_jitter=1.5)
        RecoveryConfig(backoff_factor=2.0, backoff_jitter=1.0)  # boundary OK
