"""Deterministic random-number helpers.

Every stochastic component (workload jitter, disk rotational latency) takes
an explicit :class:`numpy.random.Generator`.  Seeds are derived from string
labels so that, e.g., two venus instances in one experiment get distinct
but reproducible streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Root seed for the whole reproduction; experiments may override it.
DEFAULT_SEED: int = 19910616  # UCB/CSD 91/616


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from a parent seed and a string label.

    Uses SHA-256 so that the derivation is stable across Python versions
    (``hash()`` is salted per process and must not be used here).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Create a generator whose stream is keyed by ``(seed, label)``."""
    return np.random.default_rng(derive_seed(seed, label))
