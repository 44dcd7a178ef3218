"""Observability must observe, never perturb.

The acceptance bar for the metrics subsystem: enabling the registry
around a simulation changes *nothing* about the result (bit-identical
digest), and a profiled run populates the instruments each subsystem is
supposed to bump.
"""

from repro.obs import MetricsRegistry, use_registry
from repro.sim.config import CacheConfig, SimConfig
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem, simulate
from repro.util.rng import DEFAULT_SEED
from repro.util.units import MB
from repro.workloads.base import generate_workload


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


class _CountingRegistry(MetricsRegistry):
    """Disabled registry that counts instrument resolutions."""

    def __init__(self):
        super().__init__(enabled=False)
        self.lookups = 0

    def counter(self, name):
        self.lookups += 1
        return super().counter(name)

    def gauge(self, name):
        self.lookups += 1
        return super().gauge(name)

    def histogram(self, name):
        self.lookups += 1
        return super().histogram(name)


def test_disabled_obs_makes_zero_registry_calls_per_event():
    # Instruments are resolved once at wiring time; with observability
    # disabled, running millions of events must never go back to the
    # registry -- the null-object fast path has to be allocation- and
    # lookup-free.
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    reg = _CountingRegistry()
    system = SimulatedSystem(
        relabel_copies(venus.trace, 2), tiny_config(), obs=reg
    )
    wired = reg.lookups
    assert wired > 0  # construction does resolve instruments
    result = system.run()
    assert result.events_run > 10_000  # a real run, not a trivial one
    assert reg.lookups == wired
