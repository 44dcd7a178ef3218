"""Cache keys and the on-disk result store.

Covers the serialization invariants the cache depends on (stable field
order, exact float text, label exclusion), hit/miss/invalidation
behaviour, and the corruption-tolerance contract: a bad entry costs a
re-run, never a wrong result.
"""

import pickle
import warnings
from dataclasses import fields

import pytest

from repro.exec import keys as keys_mod
from repro.exec.cache import ResultCache
from repro.exec.keys import canonical_json, canonical_value, point_key
from repro.exec.runner import AppWorkloadSpec, SweepPointSpec, SweepRunner
from repro.sim.config import (
    CacheConfig,
    DiskConfig,
    FaultConfig,
    RecoveryConfig,
    SchedulerConfig,
    SimConfig,
)
from repro.util.units import KB, MB

WORKLOAD = AppWorkloadSpec(app="venus", scale=0.05, n_copies=2)


def small_point(cache_mb=8):
    return SweepPointSpec(
        workload=WORKLOAD,
        config=SimConfig(cache=CacheConfig(size_bytes=cache_mb * MB)),
        label=f"venus {cache_mb}MB",
    )


class TestCanonicalJson:
    def test_dict_insertion_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_floats_exact_not_repr(self):
        # 0.1 and the nearest float to its 17-digit repr are the same
        # object; a float a few ulps away must hash differently even
        # where repr would round identically at low precision.
        a = canonical_json(0.1)
        b = canonical_json(0.1 + 2e-17)
        assert "0x" in a  # float.hex form
        assert a != b

    def test_tuple_and_list_agree(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_bool_not_confused_with_int(self):
        assert canonical_json(True) != canonical_json(1)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_value(object())

    def test_config_field_order_stable(self):
        # Every field of every sub-config reaches the point key's dict,
        # with its value, in declaration order.
        config = SimConfig(
            cache=CacheConfig(size_bytes=32 * MB, block_bytes=8 * KB),
            disk=DiskConfig(n_disks=4),
            scheduler=SchedulerConfig(n_cpus=2),
            seed=7,
        )
        d = config.to_dict()
        for section in ("cache", "disk", "scheduler"):
            sub = getattr(config, section)
            assert d[section] == {f.name: getattr(sub, f.name) for f in fields(sub)}
            assert list(d[section]) == [f.name for f in fields(sub)]
        assert d["seed"] == 7


class TestConfigRoundTrip:
    def test_to_from_dict_identity(self):
        # The dict the point key hashes loses nothing: the dataclass
        # constructors rebuild an equal config from it.
        config = SimConfig(
            cache=CacheConfig(size_bytes=32 * MB, block_bytes=8 * KB),
            disk=DiskConfig(n_disks=4),
            scheduler=SchedulerConfig(n_cpus=2),
            faults=FaultConfig(error_rate=0.01, crash_at_s=3.0),
            recovery=RecoveryConfig(max_retries=5),
            seed=7,
        )
        d = config.to_dict()
        rebuilt = SimConfig(
            cache=CacheConfig(**d.pop("cache")),
            disk=DiskConfig(**d.pop("disk")),
            scheduler=SchedulerConfig(**d.pop("scheduler")),
            faults=FaultConfig.from_dict(d.pop("faults")),
            recovery=RecoveryConfig.from_dict(d.pop("recovery")),
            **d,
        )
        assert rebuilt == config
        assert canonical_json(rebuilt) == canonical_json(config)

    def test_with_seed_only_changes_seed(self):
        config = SimConfig()
        reseeded = config.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.cache == config.cache


class TestPointKeys:
    def test_key_stable_across_calls(self):
        p = small_point()
        assert p.key(0) == p.key(0)

    def test_config_change_changes_key(self):
        assert small_point(8).key(0) != small_point(32).key(0)

    def test_workload_change_changes_key(self):
        a = small_point()
        b = SweepPointSpec(
            workload=AppWorkloadSpec(app="venus", scale=0.05, n_copies=1),
            config=a.config,
        )
        assert a.key(0) != b.key(0)

    def test_sweep_seed_changes_key(self):
        p = small_point()
        assert p.key(0) != p.key(1)

    def test_code_version_changes_key(self, monkeypatch):
        p = small_point()
        before = p.key(0)
        monkeypatch.setattr(keys_mod, "code_version_tag", lambda: "f" * 64)
        assert p.key(0) != before

    def test_point_key_is_sha256_hex(self):
        key = point_key(SimConfig(), WORKLOAD.key_material(), 0)
        assert len(key) == 64
        int(key, 16)


@pytest.fixture(scope="module")
def sim_result():
    """One real (tiny) SimulationResult to store and reload."""
    return SweepRunner(jobs=1).run_point(
        SweepPointSpec(
            workload=AppWorkloadSpec(app="venus", scale=0.05),
            config=SimConfig(cache=CacheConfig(size_bytes=8 * MB)),
        )
    ).result


class TestResultCache:
    KEY = "ab" + "0" * 62

    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(self.KEY) is None
        assert cache.counters.misses == 1
        assert self.KEY not in cache
        assert len(cache) == 0

    def test_put_get_round_trip(self, tmp_path, sim_result):
        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, sim_result)
        assert path == tmp_path / "ab" / f"{self.KEY}.pkl"
        assert self.KEY in cache and len(cache) == 1
        loaded = cache.get(self.KEY)
        assert loaded is not None
        assert loaded.digest() == sim_result.digest()
        assert cache.counters.stores == 1 and cache.counters.hits == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path, sim_result):
        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, sim_result)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.get(self.KEY) is None
        assert cache.counters.misses == 1

    def test_renamed_entry_cannot_alias(self, tmp_path, sim_result):
        # An entry copied under a different key must not be served: the
        # embedded key is checked on load.
        cache = ResultCache(tmp_path)
        src = cache.put(self.KEY, sim_result)
        other = "cd" + "0" * 62
        dst = cache.path_for(other)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        with pytest.warns(RuntimeWarning, match="key mismatch"):
            assert cache.get(other) is None

    def test_non_result_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            pickle.dump({"key": self.KEY, "result": "wrong type"}, fh)
        with pytest.warns(RuntimeWarning):
            assert cache.get(self.KEY) is None


class TestErrorSurfacing:
    """Regression tests: decode/store failures used to be swallowed by a
    bare ``except Exception: pass`` -- invisible cache rot.  Now they are
    narrowed, counted, and warned about."""

    KEY = "ab" + "0" * 62

    def test_corrupt_entry_counted_and_warned(self, tmp_path, sim_result):
        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, sim_result)
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.get(self.KEY) is None
        assert cache.counters.corrupt == 1
        assert cache.counters.misses == 1

    def test_truncated_pickle_is_corrupt_not_crash(self, tmp_path, sim_result):
        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, sim_result)
        path.write_bytes(path.read_bytes()[:20])  # EOFError territory
        with pytest.warns(RuntimeWarning):
            assert cache.get(self.KEY) is None
        assert cache.counters.corrupt == 1

    def test_corrupt_entry_warns_once_per_key(self, tmp_path, sim_result):
        """Regression: a hot key with a truncated entry used to warn on
        every lookup; now it warns once per key while still counting
        every hit."""
        other = "cd" + "0" * 62
        cache = ResultCache(tmp_path)
        for key in (self.KEY, other):
            cache.put(key, sim_result).write_bytes(b"\x80\x04trunc")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.get(self.KEY) is None
        with warnings.catch_warnings():  # same key again: silent
            warnings.simplefilter("error", RuntimeWarning)
            assert cache.get(self.KEY) is None
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.get(other) is None  # distinct key: its own warning
        assert cache.counters.corrupt == 3
        # warn-once state is per cache instance: a fresh instance over
        # the same root warns anew
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert ResultCache(tmp_path).get(self.KEY) is None

    def test_plain_absence_is_a_clean_miss(self, tmp_path):
        # A missing entry is the common case, not corruption: no warning,
        # no corrupt count.
        cache = ResultCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(self.KEY) is None
        assert cache.counters.corrupt == 0
        assert cache.counters.misses == 1

    def test_failed_store_warns_and_returns_none(self, tmp_path, sim_result):
        # The fan-out directory is blocked by a plain file: mkdir raises
        # FileExistsError (an OSError).  The sweep must keep its result;
        # only the memo is lost.
        cache = ResultCache(tmp_path)
        (tmp_path / self.KEY[:2]).write_text("in the way")
        with pytest.warns(RuntimeWarning, match="store failed"):
            assert cache.put(self.KEY, sim_result) is None
        assert cache.counters.store_errors == 1
        assert cache.counters.stores == 0

    def test_unpicklable_result_degrades_to_warning(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="store failed"):
            assert cache.put(self.KEY, lambda: None) is None
        assert cache.counters.store_errors == 1
        # no temp litter left behind
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_corruption_surfaces_in_obs_registry(self, tmp_path, sim_result):
        from repro.obs import MetricsRegistry, use_registry

        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, sim_result)
        path.write_bytes(b"garbage")
        reg = MetricsRegistry()
        with use_registry(reg), pytest.warns(RuntimeWarning):
            cache.get(self.KEY)
        assert reg.snapshot()["exec.cache.corrupt_entries"] == 1


class TestInvalidation:
    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run_point(small_point(8))
        other = runner.run_point(small_point(32))
        assert not other.cached
        assert runner.simulated == 2

    def test_code_change_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        first = runner.run_point(small_point())
        monkeypatch.setattr(keys_mod, "code_version_tag", lambda: "e" * 64)
        second = SweepRunner(jobs=1, cache=cache).run_point(small_point())
        assert not second.cached
        assert second.key != first.key
