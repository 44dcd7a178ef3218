"""Content-addressed on-disk store for :class:`SimulationResult`\\ s.

Layout (two-level fan-out keeps directories small even for huge sweeps)::

    <root>/<key[:2]>/<key>.pkl

where ``key`` is the hex point key from :mod:`repro.exec.keys`.  Each
entry is a pickle of ``{"key": ..., "result": SimulationResult}``; the
embedded key is checked on load so a renamed or corrupted file can never
alias another point.  Writes go through a temp file + ``os.replace`` so
concurrent workers (or concurrent sweeps) never observe a torn entry.

The root directory defaults to ``$REPRO_CACHE_DIR``, falling back to
``~/.cache/repro/results`` (honouring ``$XDG_CACHE_HOME``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.registry import get_registry
from repro.sim.metrics import SimulationResult

#: Everything that can legitimately go wrong while decoding an entry:
#: filesystem errors plus the full range of unpickling failures (a
#: truncated file raises EOFError, a renamed class AttributeError/
#: ImportError, garbage bytes UnpicklingError or ValueError...).
_READ_ERRORS = (
    OSError, ValueError, KeyError, EOFError, AttributeError,
    ImportError, IndexError, pickle.UnpicklingError,
)

#: What a failed *store* can raise: filesystem errors and serialization
#: errors (a local/lambda object raises AttributeError from pickle).
#: Anything else (a bug) must propagate.
_WRITE_ERRORS = (OSError, pickle.PicklingError, TypeError, AttributeError)


def default_cache_dir() -> Path:
    """Resolve the result-cache root from the environment."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "results"


@dataclass
class CacheCounters:
    """Hit/miss/store accounting for one :class:`ResultCache` lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries that existed on disk but could not be decoded (counted as
    #: misses too -- a corrupt entry costs a re-run, never a wrong result)
    corrupt: int = 0
    #: stores that failed (filesystem or serialization error)
    store_errors: int = 0


@dataclass
class ResultCache:
    """Memoized simulation results, addressed by content key."""

    root: Path = field(default_factory=default_cache_dir)
    counters: CacheCounters = field(default_factory=CacheCounters)
    #: keys whose corrupt entry was already warned about -- one
    #: RuntimeWarning per key, not one per lookup, so a hot key with a
    #: rotten entry does not flood a long sweep; every occurrence is
    #: still counted.
    _corrupt_warned: set = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> SimulationResult | None:
        """The stored result for ``key``, or None on miss.

        Unreadable or mismatched entries count as misses: a stale or
        corrupted file must never poison a sweep, only cost a re-run.
        Unlike a plain absent entry, a *corrupt* one is surfaced --
        every occurrence bumps ``exec.cache.corrupt_entries`` and the
        first occurrence per key emits one RuntimeWarning -- so silent
        cache rot is visible without flooding.
        """
        path = self.path_for(key)
        try:
            fh = path.open("rb")
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        try:
            with fh:
                entry = pickle.load(fh)
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            result = entry["result"]
            if not isinstance(result, SimulationResult):
                raise ValueError("not a SimulationResult")
        except _READ_ERRORS as exc:
            self.counters.misses += 1
            self.counters.corrupt += 1
            get_registry().counter("exec.cache.corrupt_entries").inc()
            if key not in self._corrupt_warned:
                self._corrupt_warned.add(key)
                warnings.warn(
                    f"result cache entry {path} is unreadable "
                    f"({type(exc).__name__}: {exc}); treating as a miss",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        self.counters.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> Path | None:
        """Store ``result`` under ``key`` atomically; returns the path.

        A failed store (filesystem full/read-only, unpicklable result)
        degrades to a warning plus a counter and returns None -- the
        sweep already has its result; losing the memo must not lose the
        run.  Genuinely unexpected exceptions still propagate.
        """
        path = self.path_for(key)
        tmp: str | None = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(
                    {"key": key, "result": result},
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, path)
        except BaseException as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if isinstance(exc, _WRITE_ERRORS):
                self.counters.store_errors += 1
                get_registry().counter("exec.cache.store_errors").inc()
                warnings.warn(
                    f"result cache store failed for key {key[:16]}... at "
                    f"{path} ({type(exc).__name__}: {exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return None
            raise
        self.counters.stores += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))
