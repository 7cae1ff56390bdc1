"""Streaming window aggregators: equivalence with full-sort and bounds."""

import random

import pytest

from repro.obs.windows import (
    CounterWindow,
    TimeWindow,
    _interpolated_percentile,
)


class TestTimeWindow:

    def test_unbounded_percentiles_match_full_sort(self):
        rng = random.Random(11)
        win = TimeWindow()
        data = []
        for i in range(500):
            v = rng.expovariate(1.0)
            win.observe(float(i), v)
            data.append(v)
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert win.percentile(q) == \
                _interpolated_percentile(sorted(data), q)

    def test_bounded_window_matches_tail_full_sort(self):
        # Trimming to the last 64 time units keeps the last 64 samples.
        rng = random.Random(13)
        win = TimeWindow()
        data = []
        for i in range(1000):
            v = rng.gauss(0.0, 3.0)
            win.observe(float(i), v)
            win.trim(float(i + 1 - 64))
            data.append(v)
            if i % 100 == 99:
                tail = sorted(data[-64:])
                assert win.percentile(99.0) == \
                    _interpolated_percentile(tail, 99.0)
                assert win.percentile(0.0) == tail[0]
                assert win.maximum() == tail[-1]
        assert win.count == 64
        assert win.last() == data[-1]
        assert win.sum == pytest.approx(sum(data[-64:]))

    def test_duplicate_values_evict_correctly(self):
        win = TimeWindow()
        for t, v in enumerate((5.0, 5.0, 5.0, 1.0)):
            win.observe(float(t), v)
        win.trim(1.0)
        assert win.count == 3
        assert win.sum == 11.0
        assert win.percentile(0.0) == 1.0
        assert win.maximum() == 5.0

    def test_empty_window_raises(self):
        win = TimeWindow()
        with pytest.raises(ValueError):
            win.mean()
        with pytest.raises(ValueError):
            win.maximum()
        with pytest.raises(ValueError):
            win.percentile(50.0)
        assert win.last() is None
        win.observe(0.0, 1.0)
        with pytest.raises(ValueError):
            win.percentile(101.0)

    def test_trim_slides_the_window(self):
        win = TimeWindow()
        for t in range(10):
            win.observe(float(t), float(t))
        win.trim(5.0)
        assert win.count == 5
        assert win.percentile(0.0) == 5.0
        assert win.maximum() == 9.0
        assert win.mean() == pytest.approx(7.0)
        assert win.last() == 9.0

    def test_rejects_time_regression(self):
        win = TimeWindow()
        win.observe(2.0, 1.0)
        with pytest.raises(ValueError):
            win.observe(1.0, 1.0)

    def test_equal_times_allowed(self):
        win = TimeWindow()
        win.observe(1.0, 3.0)
        win.observe(1.0, 4.0)
        assert win.count == 2


class TestCounterWindow:

    def test_delta_uses_implicit_zero_origin(self):
        win = CounterWindow()
        win.observe(100.0, 7.0)
        # Counter born inside the window: full total counts.
        assert win.delta(horizon=50.0) == 7.0

    def test_delta_against_baseline_sample(self):
        win = CounterWindow()
        win.observe(10.0, 3.0)
        win.observe(20.0, 5.0)
        win.observe(30.0, 9.0)
        win.trim(20.0)
        assert win.delta(horizon=20.0) == 4.0  # 9 - 5
        # Window slid fully past the growth: no delta left.
        win.trim(30.0)
        assert win.delta(horizon=30.0) == 0.0

    def test_empty_delta_is_zero(self):
        assert CounterWindow().delta(horizon=0.0) == 0.0
