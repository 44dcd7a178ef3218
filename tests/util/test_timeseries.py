"""BinnedSeries and RateSeries: the figures' underlying data structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.timeseries import BinnedSeries, RateSeries


class TestBinnedSeries:
    def test_basic_accumulation(self):
        s = BinnedSeries(1.0)
        s.add(0.5, 10.0)
        s.add(0.7, 5.0)
        s.add(2.1, 1.0)
        assert s.n_bins == 3
        np.testing.assert_allclose(s.values(), [15.0, 0.0, 1.0])
        assert s.total == pytest.approx(16.0)

    def test_grows_on_demand(self):
        s = BinnedSeries(1.0)
        s.add(100.5, 1.0)
        assert s.n_bins == 101
        assert s.values()[100] == 1.0

    def test_rejects_pre_origin(self):
        s = BinnedSeries(1.0, t0=10.0)
        with pytest.raises(ValueError):
            s.add(9.0)
        s.add(10.0)  # boundary ok
        assert s.n_bins == 1

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            BinnedSeries(0.0)

    def test_times_are_left_edges(self):
        s = BinnedSeries(2.0, t0=1.0)
        s.add(6.9)
        np.testing.assert_allclose(s.times(), [1.0, 3.0, 5.0])

    def test_add_spread_conserves_weight(self):
        s = BinnedSeries(1.0)
        s.add_spread(0.5, 3.5, 30.0)
        assert s.total == pytest.approx(30.0)
        # 0.5s in bin0, 1s each in bins 1 & 2, 0.5s in bin3
        np.testing.assert_allclose(s.values(), [5.0, 10.0, 10.0, 5.0])

    def test_add_spread_zero_duration(self):
        s = BinnedSeries(1.0)
        s.add_spread(1.5, 1.5, 7.0)
        assert s.values()[1] == pytest.approx(7.0)

    def test_add_spread_rejects_reversed(self):
        s = BinnedSeries(1.0)
        with pytest.raises(ValueError):
            s.add_spread(2.0, 1.0, 1.0)

    @given(
        st.lists(
            st.tuples(st.floats(0, 50), st.floats(0.01, 20), st.floats(0, 100)),
            max_size=30,
        )
    )
    def test_spread_total_conserved(self, intervals):
        s = BinnedSeries(0.7)
        expected = 0.0
        for t0, dur, w in intervals:
            s.add_spread(t0, t0 + dur, w)
            expected += w
        assert s.total == pytest.approx(expected, abs=1e-6, rel=1e-9)


class _NumpyBinnedSeries:
    """The float64-array ``BinnedSeries`` the list-backed one replaced,
    kept as the reference for bit-for-bit equality."""

    def __init__(self, bin_width: float, t0: float = 0.0):
        self.bin_width = float(bin_width)
        self.t0 = float(t0)
        self._bins = np.zeros(16, dtype=float)
        self._n_used = 0

    def add(self, t: float, weight: float = 1.0) -> None:
        if t < self.t0:
            raise ValueError(f"time {t} precedes series origin {self.t0}")
        idx = int((t - self.t0) / self.bin_width)
        if idx >= self._bins.size:
            new_size = max(idx + 1, self._bins.size * 2)
            self._bins = np.concatenate(
                [self._bins, np.zeros(new_size - self._bins.size)]
            )
        self._bins[idx] += weight
        if idx + 1 > self._n_used:
            self._n_used = idx + 1

    def add_spread(self, t_start: float, t_end: float, weight: float) -> None:
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        if t_end == t_start:
            self.add(t_start, weight)
            return
        duration = t_end - t_start
        t = t_start
        while t < t_end:
            idx = int((t - self.t0) / self.bin_width)
            bin_end = self.t0 + (idx + 1) * self.bin_width
            if bin_end <= t:
                bin_end = self.t0 + (idx + 2) * self.bin_width
            seg_end = min(bin_end, t_end)
            self.add(t, weight * (seg_end - t) / duration)
            t = seg_end

    @property
    def n_bins(self) -> int:
        return self._n_used

    def values(self) -> np.ndarray:
        return self._bins[: self._n_used].copy()

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self._n_used) * self.bin_width

    @property
    def total(self) -> float:
        return float(self._bins[: self._n_used].sum())


@st.composite
def _series_calls(draw):
    """A bin width, an origin, and a sequence of add/add_spread calls at
    times on bin edges (``t0 + k * width``) and off them."""
    width = draw(st.sampled_from([0.1, 0.7, 1.0, 3.0]))
    t0 = draw(st.sampled_from([0.0, 2.5, 1e3 + 0.3]))
    on_edge = st.integers(0, 60).map(lambda k: t0 + k * width)
    off_edge = st.floats(0, 60 * width).map(lambda x: t0 + x)
    when = st.one_of(on_edge, off_edge)
    weight = st.floats(0, 1e6, allow_nan=False)
    spread = st.one_of(
        st.just(0.0),  # zero length
        st.integers(1, 40).map(lambda k: k * width),  # edge to edge
        st.floats(0, 40 * width),  # many bins
    )
    calls = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), when, weight),
                st.tuples(st.just("add_spread"), when, spread, weight),
            ),
            max_size=40,
        )
    )
    return width, t0, calls


class TestListBackedEqualsNumpy:
    @given(_series_calls())
    def test_bit_for_bit(self, drawn):
        width, t0, calls = drawn
        ours, ref = BinnedSeries(width, t0), _NumpyBinnedSeries(width, t0)
        for call in calls:
            if call[0] == "add":
                _, t, w = call
                ours.add(t, w)
                ref.add(t, w)
            else:
                _, t, dur, w = call
                ours.add_spread(t, t + dur, w)
                ref.add_spread(t, t + dur, w)
        assert ours.values().tobytes() == ref.values().tobytes()
        assert ours.times().tobytes() == ref.times().tobytes()
        assert ours.n_bins == ref.n_bins
        assert ours.total == ref.total


class TestRateSeries:
    def _series(self):
        return RateSeries.from_events(
            ts=[0.1, 0.2, 1.5, 3.9], weights=[10, 10, 5, 1], bin_width=1.0
        )

    def test_rates(self):
        r = self._series()
        np.testing.assert_allclose(r.rates, [20.0, 5.0, 0.0, 1.0])
        assert r.peak == 20.0
        assert r.mean == pytest.approx(6.5)
        assert r.total == pytest.approx(26.0)
        assert r.duration == pytest.approx(4.0)

    def test_burstiness(self):
        r = self._series()
        assert r.burstiness() == pytest.approx(20.0 / 6.5)
        empty = RateSeries(np.zeros(0), np.zeros(0), 1.0)
        assert empty.burstiness() == 0.0

    def test_active_fraction(self):
        r = self._series()
        assert r.active_fraction() == pytest.approx(3 / 4)
        assert r.active_fraction(threshold=6.0) == pytest.approx(1 / 4)

    def test_truncated(self):
        r = self._series().truncated(2.0)
        assert r.rates.size == 2
        assert r.total == pytest.approx(25.0)

    def test_rate_normalization_by_bin_width(self):
        r = RateSeries.from_events([0.1], [10.0], bin_width=0.5)
        assert r.rates[0] == pytest.approx(20.0)  # 10 units / 0.5 s

    def test_autocorrelation_detects_period(self):
        # Period-5 impulse train
        t = np.arange(100, dtype=float)
        w = np.where(t % 5 == 0, 10.0, 0.0)
        r = RateSeries.from_events(t, w, bin_width=1.0)
        ac = r.autocorrelation(max_lag=20)
        assert ac[0] == pytest.approx(1.0)
        # Lag 5 should be the strongest off-zero peak
        assert np.argmax(ac[1:]) + 1 == 5

    def test_autocorrelation_constant_series(self):
        r = RateSeries.from_events([0.5, 1.5], [1.0, 1.0], bin_width=1.0)
        ac = r.autocorrelation()
        assert ac[0] == pytest.approx(1.0)

    def test_autocorrelation_empty(self):
        r = RateSeries(np.zeros(0), np.zeros(0), 1.0)
        assert r.autocorrelation().size == 0
