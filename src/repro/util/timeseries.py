"""Binned time series, the data structure behind every rate-over-time figure.

Figures 3, 4, 6 and 7 of the paper all plot "MB per (CPU|wall) second" at
one-second resolution.  :class:`BinnedSeries` accumulates weighted events
into fixed-width bins; :class:`RateSeries` interprets the accumulated
weight per bin as a rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class BinnedSeries:
    """Accumulate event weights into fixed-width time bins.

    The series grows on demand: adding an event past the current end
    extends the bin list, so callers do not need to know the trace length
    in advance.  The bins are a Python list of floats: ``bins[i] += w``
    is the same IEEE-754 double addition a float64 array performs, in
    the same order, without boxing a NumPy scalar on every add (the
    simulator adds once per request and per busy interval).
    """

    def __init__(self, bin_width: float, t0: float = 0.0):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self.t0 = float(t0)
        self._bins: list[float] = []

    def add(self, t: float, weight: float = 1.0) -> None:
        """Add ``weight`` at time ``t``.  Times before ``t0`` are rejected."""
        if t < self.t0:
            raise ValueError(f"time {t} precedes series origin {self.t0}")
        idx = int((t - self.t0) / self.bin_width)
        bins = self._bins
        if idx >= len(bins):
            bins.extend([0.0] * (idx + 1 - len(bins)))
        bins[idx] += weight

    def add_many(self, ts: Iterable[float], weights: Iterable[float]) -> None:
        for t, w in zip(ts, weights):
            self.add(t, w)

    def add_spread(self, t_start: float, t_end: float, weight: float) -> None:
        """Spread ``weight`` uniformly over the interval ``[t_start, t_end]``.

        Used to attribute a long disk transfer's bytes across all the bins
        it overlaps, rather than impulsing them at the start time.
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        if t_end == t_start:
            self.add(t_start, weight)
            return
        t0, width, bins = self.t0, self.bin_width, self._bins
        if t_start < t0:
            raise ValueError(f"time {t_start} precedes series origin {t0}")
        duration = t_end - t_start
        t = t_start
        while t < t_end:
            # Each segment's bin is computed from ``t`` exactly as
            # :meth:`add` computes it.
            idx = int((t - t0) / width)
            bin_end = t0 + (idx + 1) * width
            if bin_end <= t:
                # Float rounding put the computed edge at or before t
                # (t sits exactly on a representable bin boundary); step
                # to the following edge so the loop always progresses.
                bin_end = t0 + (idx + 2) * width
            seg_end = t_end if t_end < bin_end else bin_end
            if idx >= len(bins):
                bins.extend([0.0] * (idx + 1 - len(bins)))
            bins[idx] += weight * (seg_end - t) / duration
            t = seg_end

    @property
    def n_bins(self) -> int:
        return len(self._bins)

    def values(self) -> np.ndarray:
        """The accumulated weight per bin (a copy)."""
        return np.array(self._bins, dtype=float)

    def times(self) -> np.ndarray:
        """The left edge of each used bin."""
        return self.t0 + np.arange(len(self._bins)) * self.bin_width

    @property
    def total(self) -> float:
        return float(self.values().sum())


@dataclass
class RateSeries:
    """A rate-over-time curve: per-bin totals divided by the bin width.

    ``times`` holds bin left edges; ``rates`` holds weight/second in each
    bin.  Construct via :meth:`from_binned` or :meth:`from_events`.
    """

    times: np.ndarray
    rates: np.ndarray
    bin_width: float

    @classmethod
    def from_binned(cls, series: BinnedSeries) -> "RateSeries":
        return cls(
            times=series.times(),
            rates=series.values() / series.bin_width,
            bin_width=series.bin_width,
        )

    @classmethod
    def from_events(
        cls,
        ts: Sequence[float],
        weights: Sequence[float],
        bin_width: float = 1.0,
        t0: float = 0.0,
    ) -> "RateSeries":
        binned = BinnedSeries(bin_width, t0)
        binned.add_many(ts, weights)
        return cls.from_binned(binned)

    @property
    def peak(self) -> float:
        """The highest per-bin rate (0 for an empty series)."""
        return float(self.rates.max()) if self.rates.size else 0.0

    @property
    def mean(self) -> float:
        """The mean per-bin rate (0 for an empty series)."""
        return float(self.rates.mean()) if self.rates.size else 0.0

    @property
    def total(self) -> float:
        """Total accumulated weight across all bins."""
        return float((self.rates * self.bin_width).sum())

    @property
    def duration(self) -> float:
        """Covered time span in seconds."""
        return self.rates.size * self.bin_width

    def burstiness(self) -> float:
        """Peak-to-mean ratio, the paper's informal burstiness measure.

        Returns 0 for an all-zero or empty series.
        """
        return self.peak / self.mean if self.mean > 0 else 0.0

    def active_fraction(self, threshold: float = 0.0) -> float:
        """Fraction of bins whose rate strictly exceeds ``threshold``."""
        if self.rates.size == 0:
            return 0.0
        return float((self.rates > threshold).sum()) / self.rates.size

    def truncated(self, t_max: float) -> "RateSeries":
        """The prefix of the series with bin edges below ``t_max``."""
        mask = self.times < t_max
        return RateSeries(self.times[mask], self.rates[mask], self.bin_width)

    def autocorrelation(self, max_lag: int | None = None) -> np.ndarray:
        """Normalized autocorrelation of the rate curve, lags 0..max_lag.

        Cycle detection (section 5.3) looks for the first strong off-zero
        peak of this function.
        """
        n = self.rates.size
        if n == 0:
            return np.zeros(0)
        x = self.rates - self.rates.mean()
        if max_lag is None:
            max_lag = n - 1
        max_lag = min(max_lag, n - 1)
        denom = float((x * x).sum())
        if denom == 0:
            out = np.zeros(max_lag + 1)
            out[0] = 1.0
            return out
        full = np.correlate(x, x, mode="full")[n - 1 :]
        return full[: max_lag + 1] / denom
