"""Bounded streaming aggregators: windows and quantile sketches.

Percentile queries over raw instrument histories re-sort the full
observation list on every call — O(n log n) per query, unbounded
memory.  This module provides the consumption-side building blocks the
watchtower layer (:mod:`repro.obs.slo`, :mod:`repro.obs.rollup`) runs
on instead:

* :class:`SlidingWindow` — the last *k* observations in a ring buffer
  with a **sorted shadow** maintained by ``bisect.insort``: O(log n)
  comparisons per observation, O(1) rank lookup per percentile query,
  memory bounded by ``maxlen``;
* :class:`TimeWindow` — the same sorted-shadow scheme bounded by
  *duration* instead of count (samples older than a horizon are
  evicted), for "p99 over the last 300 s" SLO queries;
* :class:`CounterWindow` — windowed deltas of a cumulative counter
  series (the rate/ratio primitive burn-rate alerting needs);
* :class:`P2Quantile` — Jain & Chlamtac's P² streaming quantile
  estimator: five markers, O(1) memory, no stored samples, for
  unbounded streams where even a ring buffer is too much state.

Values are stored as handed in (no ``float()`` coercion), so
operation-counting harnesses can feed comparison-instrumented floats
and measure the per-observation work directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import List, Optional


def _interpolated_percentile(data: List[float], q: float) -> float:
    """Linear-interpolation percentile over a *sorted* list."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    if not data:
        raise ValueError("no observations")
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class SlidingWindow:
    """The last ``maxlen`` observations, percentile-queryable in O(1).

    ``maxlen=None`` keeps every observation (still insertion-sorted, so
    queries never re-sort).
    """

    __slots__ = ("maxlen", "_buf", "_sorted", "_sum")

    def __init__(self, maxlen: Optional[int] = None):
        if maxlen is not None and maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self._buf: deque = deque()
        self._sorted: List[float] = []
        self._sum = 0.0

    def observe(self, value) -> None:
        if self.maxlen is not None and len(self._buf) >= self.maxlen:
            old = self._buf.popleft()
            del self._sorted[bisect_left(self._sorted, old)]
            self._sum -= old
        self._buf.append(value)
        insort(self._sorted, value)
        self._sum += value

    @property
    def count(self) -> int:
        return len(self._buf)

    @property
    def sum(self) -> float:
        return self._sum

    def values(self) -> List[float]:
        """Retained observations in arrival order."""
        return list(self._buf)

    def mean(self) -> float:
        if not self._buf:
            raise ValueError("window is empty")
        return self._sum / len(self._buf)

    def minimum(self) -> float:
        if not self._buf:
            raise ValueError("window is empty")
        return self._sorted[0]

    def maximum(self) -> float:
        if not self._buf:
            raise ValueError("window is empty")
        return self._sorted[-1]

    def percentile(self, q: float) -> float:
        return _interpolated_percentile(self._sorted, q)

    def __len__(self) -> int:
        return len(self._buf)

    def __repr__(self):
        return f"<SlidingWindow n={len(self._buf)} maxlen={self.maxlen}>"


class TimeWindow:
    """Duration-bounded sample window over (time, value) pairs.

    Feed with :meth:`observe` (times must be non-decreasing), slide
    with :meth:`trim` — eviction is amortized O(log n) per departing
    sample, identical shadow scheme to :class:`SlidingWindow`.
    """

    __slots__ = ("_samples", "_sorted", "_sum")

    def __init__(self):
        self._samples: deque = deque()  # (t, v), time-ordered
        self._sorted: List[float] = []
        self._sum = 0.0

    def observe(self, t: float, value) -> None:
        if self._samples and t < self._samples[-1][0]:
            raise ValueError(f"sample at {t} precedes the last one")
        self._samples.append((t, value))
        insort(self._sorted, value)
        self._sum += value

    def trim(self, horizon: float) -> None:
        """Evict samples strictly older than ``horizon``."""
        while self._samples and self._samples[0][0] < horizon:
            _, old = self._samples.popleft()
            del self._sorted[bisect_left(self._sorted, old)]
            self._sum -= old

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("window is empty")
        return self._sum / len(self._samples)

    def maximum(self) -> float:
        if not self._samples:
            raise ValueError("window is empty")
        return self._sorted[-1]

    def last(self):
        return self._samples[-1][1] if self._samples else None

    def percentile(self, q: float) -> float:
        return _interpolated_percentile(self._sorted, q)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self):
        return f"<TimeWindow n={len(self._samples)}>"


class CounterWindow:
    """Windowed delta of a cumulative counter series.

    Counters stream their *running total* (``MetricsRecorder.counter``
    semantics, implicit origin 0).  :meth:`delta` answers "how much did
    the counter grow inside the window": the last total minus the
    baseline — the most recent sample at or before the horizon, or the
    implicit 0 when the counter was born inside the window.
    """

    __slots__ = ("_samples",)

    def __init__(self):
        self._samples: deque = deque()  # (t, total), time-ordered

    def observe(self, t: float, total: float) -> None:
        if self._samples and t < self._samples[-1][0]:
            raise ValueError(f"sample at {t} precedes the last one")
        self._samples.append((t, total))

    def trim(self, horizon: float) -> None:
        """Evict samples before ``horizon``, always keeping the newest
        at-or-before sample as the delta baseline."""
        while (len(self._samples) >= 2
               and self._samples[1][0] <= horizon):
            self._samples.popleft()

    def delta(self, horizon: float) -> float:
        """Counter growth since ``horizon`` (0.0 with no samples)."""
        if not self._samples:
            return 0.0
        last = self._samples[-1][1]
        first_t, first_v = self._samples[0]
        baseline = first_v if first_t <= horizon else 0.0
        return last - baseline

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self):
        return f"<CounterWindow n={len(self._samples)}>"


class P2Quantile:
    """P² streaming quantile estimate (Jain & Chlamtac, 1985).

    Five markers track the running ``q``-th percentile with parabolic
    interpolation — O(1) memory and O(1) work per observation, at the
    cost of being an *estimate*.  Use where even a bounded window is
    too much state (per-label fan-outs, million-sample streams).
    """

    __slots__ = ("q", "_n", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 100.0:
            raise ValueError("q must be in (0, 100) for the P2 sketch")
        self.q = q
        p = q / 100.0
        self._n = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                         3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    @property
    def count(self) -> int:
        return self._n

    def observe(self, value: float) -> None:
        value = float(value)
        self._n += 1
        if self._n <= 5:
            insort(self._heights, value)
            return
        h = self._heights
        # Locate the cell and clamp the extremes.
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while value >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers.
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            pos, prev, nxt = (self._positions[i], self._positions[i - 1],
                              self._positions[i + 1])
            if (d >= 1.0 and nxt - pos > 1.0) or \
                    (d <= -1.0 and prev - pos < -1.0):
                d = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, d)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, d)
                h[i] = candidate
                self._positions[i] = pos + d

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current quantile estimate."""
        if self._n == 0:
            raise ValueError("no observations")
        if self._n <= 5:
            return _interpolated_percentile(self._heights, self.q)
        return self._heights[2]

    def __repr__(self):
        return f"<P2Quantile q={self.q} n={self._n}>"
