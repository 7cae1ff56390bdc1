"""Bounded streaming windows over time-stamped samples.

Percentile queries over raw instrument histories re-sort the full
observation list on every call — O(n log n) per query, unbounded
memory.  This module provides the consumption-side building blocks the
SLO engine (:mod:`repro.obs.slo`) runs on instead:

* :class:`TimeWindow` — samples newer than a horizon, with a **sorted
  shadow** maintained by ``bisect.insort``: O(log n) comparisons per
  observation, O(1) rank lookup per percentile query, memory bounded
  by the window's duration — for "p99 over the last 300 s" SLO
  queries;
* :class:`CounterWindow` — windowed deltas of a cumulative counter
  series (the rate/ratio primitive burn-rate alerting needs).

Values are stored as handed in (no ``float()`` coercion), so
operation-counting harnesses can feed comparison-instrumented floats
and measure the per-observation work directly.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import List

from .instruments import _interpolated_percentile


class TimeWindow:
    """Duration-bounded sample window over (time, value) pairs.

    Feed with :meth:`observe` (times must be non-decreasing), slide
    with :meth:`trim` — eviction is amortized O(log n) comparisons per
    departing sample.
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
