"""Stable cache keys for simulation points.

A sweep point is identified by *what* it simulates -- the
:class:`~repro.sim.config.SimConfig`, the workload specification and the
version of the simulator code -- never by *when* or *where* it ran.  The
key is the SHA-256 of a canonical JSON rendering in which:

* dict keys come out in dataclass field-declaration order (the configs'
  ``to_dict`` guarantees this) and ``canonical_json`` additionally sorts
  any free-form dicts, so insertion order never leaks in;
* floats are rendered with :meth:`float.hex`, which is exact -- two
  configs hash equal iff their floats are bit-identical, and the text
  never depends on repr shortest-digit behaviour;
* the code-version tag hashes every ``repro`` source file, so editing the
  simulator invalidates previously cached results.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.sim.config import SimConfig


def canonical_value(value):
    """Recursively convert a value into a JSON-safe canonical form."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # float.hex is exact and stable; repr is *usually* stable but
        # documents no such guarantee for round-tripping across builds.
        return {"__float__": value.hex()}
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if hasattr(value, "to_dict"):
        return canonical_value(value.to_dict())
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def canonical_json(value) -> str:
    """Deterministic JSON text for ``value`` (see :func:`canonical_value`)."""
    return json.dumps(
        canonical_value(value), sort_keys=True, separators=(",", ":")
    )


def file_digest(path: str | Path, *, chunk_bytes: int = 1 << 20) -> str:
    """SHA-256 of a file's contents, streamed in bounded chunks.

    Keys trace files by what they hold, never by where they sit, and a
    multi-gigabyte trace never has to fit in memory just to be hashed.
    """
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for piece in iter(lambda: fh.read(chunk_bytes), b""):
            h.update(piece)
    return h.hexdigest()


@lru_cache(maxsize=None)
def code_version_tag() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Any edit to the package -- simulator, workload models, trace codec --
    changes the tag, invalidating all cached results.  Coarse, but safe:
    the cache must never serve a result the current code would not
    reproduce.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def point_key_material(
    config: SimConfig, workload_material: dict, sweep_seed: int | None
) -> dict:
    """The dict whose canonical JSON is hashed into the point key."""
    return {
        "config": config.to_dict(),
        "workload": workload_material,
        "sweep_seed": sweep_seed,
        "code_version": code_version_tag(),
    }


def point_key(config: SimConfig, workload_material: dict, sweep_seed: int | None) -> str:
    """Content-addressed key for one ``(config, workload)`` sweep point."""
    text = canonical_json(point_key_material(config, workload_material, sweep_seed))
    return hashlib.sha256(text.encode()).hexdigest()
