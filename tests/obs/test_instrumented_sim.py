"""Observability must observe, never perturb.

The acceptance bar for the metrics subsystem: enabling the registry
around a simulation changes *nothing* about the result (bit-identical
digest), and a profiled run populates the instruments each subsystem is
supposed to bump.
"""

from repro.obs import MetricsRegistry, use_registry
from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem, simulate
from repro.trace.procstat import ProcstatCollector
from repro.util.rng import DEFAULT_SEED
from repro.util.units import MB
from repro.workloads.base import generate_workload, model_for


def tiny_traces():
    return [generate_workload("venus", scale=0.05, seed=3).trace]


def tiny_config():
    return SimConfig(cache=CacheConfig(size_bytes=8 * MB))


class TestNonPerturbation:
    def test_enabled_registry_is_bit_identical_to_disabled(self):
        baseline = simulate(tiny_traces(), tiny_config())
        with use_registry(MetricsRegistry()):
            profiled = simulate(tiny_traces(), tiny_config())
        assert profiled.digest() == baseline.digest()

    def test_explicit_obs_argument_is_bit_identical(self):
        baseline = simulate(tiny_traces(), tiny_config())
        profiled = simulate(tiny_traces(), tiny_config(), obs=MetricsRegistry())
        assert profiled.digest() == baseline.digest()


class TestInstrumentsPopulated:
    def test_each_subsystem_reports(self):
        reg = MetricsRegistry()
        result = simulate(tiny_traces(), tiny_config(), obs=reg)
        snap = reg.snapshot()

        # engine
        assert snap["sim.engine.events_run"] == result.events_run > 0
        assert snap["sim.engine.heap_depth"]["peak"] >= 1
        # cache: mirrored stats plus the derived hit fraction
        assert snap["sim.cache.read_requests"] > 0
        hit = snap["sim.cache.hit_fraction"]["value"]
        assert abs(hit - result.cache.hit_fraction) < 1e-12
        # disk, incl. per-device busy accounting
        assert snap["sim.disk.requests"] > 0
        device_busy = [
            v["value"] if isinstance(v, dict) else v
            for name, v in snap.items()
            if name.startswith("sim.disk.device.")
        ]
        assert device_busy and sum(device_busy) > 0
        # scheduler and per-process accounting
        assert snap["sim.sched.dispatches"] > 0
        assert "sim.sched.context_switches" in snap
        assert snap["sim.proc.1.ios"] > 0

    def test_disabled_registry_collects_nothing(self):
        reg = MetricsRegistry(enabled=False)
        simulate(tiny_traces(), tiny_config(), obs=reg)
        assert reg.snapshot() == {}


class _CountingInstrument:
    """Null instrument that counts every method call made on it."""

    def __init__(self, registry):
        self._registry = registry

    def _call(self, *args):
        self._registry.instrument_calls += 1

    inc = add = set = set_max = observe = _call


class _CountingRegistry(MetricsRegistry):
    """Disabled registry that counts instrument resolutions, and calls
    on the null instruments it hands out."""

    def __init__(self):
        super().__init__(enabled=False)
        self.lookups = 0
        self.instrument_calls = 0

    def counter(self, name):
        self.lookups += 1
        return _CountingInstrument(self)

    gauge = histogram = counter


def _venus_run():
    """Two venus copies on an 8 MB main-memory cache: misses, evictions,
    write-behind, context switches."""
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    return relabel_copies(venus.trace, 2), tiny_config()


def _ssd_run():
    """One bvi process alone on a 256 MB SSD (section 6.3): nearly every
    read is an all-clean hit and the only ready process keeps its CPU."""
    bvi = generate_workload("bvi", scale=0.01, seed=DEFAULT_SEED)
    return [bvi.trace], SimConfig(cache=ssd_cache(256 * MB))


def _procstat_collection(reg) -> ProcstatCollector:
    """venus collected through procstat (section 4): small packets and a
    short flush interval, so packet emits and forced flushes both run."""
    collector = ProcstatCollector(
        [].append, max_events_per_packet=64, flush_interval=1000, obs=reg
    )
    model_for("venus", scale=0.05, seed=DEFAULT_SEED).generate(
        collector=collector
    )
    return collector


def test_disabled_obs_makes_zero_registry_calls_per_event():
    # Instruments are resolved once at wiring time; with observability
    # disabled, running the calendar must never go back to the registry
    # nor call the null instruments it handed out.
    for make_run in (_venus_run, _ssd_run):
        traces, config = make_run()
        reg = _CountingRegistry()
        system = SimulatedSystem(traces, config, obs=reg)
        wired = reg.lookups
        assert wired > 0  # construction does resolve instruments
        result = system.run()
        assert result.events_run > 10_000  # a real run, not a trivial one
        assert reg.lookups == wired
        assert reg.instrument_calls == 0, make_run.__name__
    # The same holds for the trace collector's per-event path.
    reg = _CountingRegistry()
    collector = _procstat_collection(reg)
    assert collector.total_events > 1_000 and collector.packets_emitted > 1
    assert reg.instrument_calls == 0


#: What an enabled registry counts on each run, recorded before the
#: disabled-registry calls were taken off the run path.
_ENABLED_PINS = {
    "_venus_run": {
        "sim.sched.dispatches": 4122,
        "sim.sched.quantum_expiries": 360,
        "sim.sched.context_switches": 3422,
        "sim.sched.io_unblocks": 2239,
        "sim.cache.evictions": 627008,
        "sim.cache.frame_wait_parks": 0,
        "sim.engine.events_run": 13784,
        "sim.sched.ready_depth.peak": 2,
        "sim.engine.heap_depth.peak": 16,
        "sim.cache.writebehind_queue_depth.peak": 15,
        "sim.disk.seek_distance_bytes.count": 1990,
    },
    "_ssd_run": {
        "sim.sched.dispatches": 37455,
        "sim.sched.quantum_expiries": 211,
        "sim.sched.context_switches": 1,
        "sim.sched.io_unblocks": 5,
        "sim.cache.evictions": 0,
        "sim.cache.frame_wait_parks": 0,
        "sim.engine.events_run": 86645,
        "sim.sched.ready_depth.peak": 1,
        "sim.engine.heap_depth.peak": 24,
        "sim.cache.writebehind_queue_depth.peak": 23,
        "sim.disk.seek_distance_bytes.count": 8,
    },
}


#: What an enabled registry counts for :func:`_procstat_collection`,
#: recorded before the disabled-registry calls were taken off the
#: collector's per-event path.
_PROCSTAT_PINS = {
    "trace.procstat.events": 1881,
    "trace.procstat.packets": 38,
    "trace.procstat.flushes": 2,
    "trace.procstat.open_packets": {"value": 7, "peak": 7},
}


def test_enabled_obs_counts_every_instrument_call():
    # The calls skipped while disabled all happen while enabled.
    for make_run in (_venus_run, _ssd_run):
        traces, config = make_run()
        reg = MetricsRegistry()
        SimulatedSystem(traces, config, obs=reg).run()
        snap = reg.snapshot()
        got = {}
        for name in _ENABLED_PINS[make_run.__name__]:
            base, _, field = name.rpartition(".")
            if field in ("peak", "count"):
                got[name] = snap[base][field]
            else:
                got[name] = snap[name]
        assert got == _ENABLED_PINS[make_run.__name__]
    reg = MetricsRegistry()
    _procstat_collection(reg)
    got = {k: v for k, v in reg.snapshot().items() if k.startswith("trace.")}
    assert got == _PROCSTAT_PINS
