"""Typed metric instruments: counters, gauges, histograms.

Complementing :class:`~repro.metrics.TimeSeries` (raw samples over
time), these are the classic aggregation shapes:

* :class:`Counter` — monotonically increasing total (bytes sent,
  transfers completed);
* :class:`Gauge` — a value that goes up and down (queue depth, flows in
  flight);
* :class:`Histogram` — a distribution with ``percentile()`` (migration
  downtimes, round-trip times).

Each instrument can stream its updates into a sink callable; the
:class:`~repro.metrics.MetricsRecorder` factory methods
(``counter``/``gauge``/``histogram``) wire that sink to a time series,
so instruments and probes coexist in one registry.

Labels
------
Instruments can carry **labels** — tag dimensions like
``counter("spot.reclaims", labels={"tenant": "acme", "cloud": "east"})``.
The labels are data on the series (:attr:`~repro.metrics.TimeSeries.labels`,
values stringified).
:func:`labeled_name` renders the series name once, when the series is
created: ``spot.reclaims{cloud=east,tenant=acme}`` (keys sorted).  The
name is an export key and is never parsed back.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Mapping, Optional

__all__ = [
    "Counter", "Gauge", "Histogram", "Instrument", "Timer",
    "labeled_name",
]

Sink = Optional[Callable[[float], None]]


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


#: Characters with structural meaning inside a ``name{k=v,...}`` body;
#: they are backslash-escaped in values and forbidden in keys.
_LABEL_SPECIALS = "\\,=}{"


def _escape_label_value(value: str) -> str:
    if not any(ch in _LABEL_SPECIALS for ch in value):
        return value  # the overwhelmingly common case: no copy
    return "".join(f"\\{ch}" if ch in _LABEL_SPECIALS else ch
                   for ch in value)


def labeled_name(base: str, labels: Optional[Mapping[str, object]]) -> str:
    """Canonical series name for ``base`` + ``labels``.

    Keys are sorted so every call site producing the same label set hits
    the same series; values are stringified, with the structural
    characters (``\\ , = { }``) backslash-escaped so two different
    label sets never render to the same name.  Keys must be free of
    structural characters — a tag *dimension* containing ``=``
    is a bug at the call site, not data.  ``labels=None`` / ``{}``
    returns ``base`` unchanged.
    """
    if not labels:
        return base
    if "{" in base:
        raise ValueError(f"base name {base!r} already carries labels")
    for key in labels:
        if not key or any(ch in _LABEL_SPECIALS for ch in key):
            raise ValueError(
                f"label key {key!r} is empty or contains one of "
                f"{_LABEL_SPECIALS!r}")
    body = ",".join(f"{k}={_escape_label_value(str(labels[k]))}"
                    for k in sorted(labels))
    return f"{base}{{{body}}}"


class Instrument:
    """Shared naming/sink plumbing."""

    __slots__ = ("name", "_sink")

    def __init__(self, name: str, sink: Sink = None):
        self.name = name
        self._sink = sink

    def _emit(self, value: float) -> None:
        if self._sink is not None:
            self._sink(value)


class Counter(Instrument):
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self, name: str, sink: Sink = None):
        super().__init__(name, sink)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount`` (must be >= 0); returns the new total."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount
        self._emit(self._value)
        return self._value


class Gauge(Instrument):
    """A value that moves both ways."""

    __slots__ = ("_value",)

    def __init__(self, name: str, sink: Sink = None):
        super().__init__(name, sink)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> float:
        self._value = float(value)
        self._emit(self._value)
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        return self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> float:
        return self.set(self._value - amount)


class Histogram(Instrument):
    """A distribution of observations with summary statistics.

    The observations are stored once, in the
    :class:`~repro.metrics.TimeSeries` they are recorded into, and the
    statistics are read from there (``percentile()`` sorts per query).
    The recorder passes that ``series`` together with the ``sink`` that
    records into it; a standalone histogram records into a private
    series of its own.
    """

    __slots__ = ("_series",)

    def __init__(self, name: str, sink: Sink = None, series=None):
        if series is None:
            if sink is not None:
                raise TypeError("a sink needs the series it records into")
            from ..metrics import TimeSeries

            series = TimeSeries(name)
            sink = partial(series.record, 0.0)
        super().__init__(name, sink)
        self._series = series

    def observe(self, value: float) -> None:
        self._emit(float(value))

    def _observations(self) -> List[float]:
        values = self._series.values()
        if not values:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return values

    @property
    def count(self) -> int:
        return len(self._series)

    @property
    def sum(self) -> float:
        return sum(self._series.values(), 0.0)

    def mean(self) -> float:
        values = self._observations()
        return sum(values, 0.0) / len(values)

    def minimum(self) -> float:
        return min(self._observations())

    def maximum(self) -> float:
        return max(self._observations())

    def percentile(self, q: float) -> float:
        """The q-th percentile (linear interpolation between ranks),
        e.g. ``percentile(50)`` is the median."""
        return _interpolated_percentile(sorted(self._observations()), q)


class Timer(Histogram):
    """A histogram of simulation-time durations.

    ``timer.time(sim)`` opens a context manager that observes the
    elapsed simulated time on exit — the shape bid/reclaim/rescue
    instrumentation wants::

        with rescue_timer.time(sim):
            yield service.migrate_vm(vm, dst)

    Failure handling: when the timed block raises, or the caller ends
    the timing with :meth:`_Running.fail` (an operation that returns a
    failed outcome rather than raising), the duration is a
    *failed-operation* latency and would skew the success histogram, so
    it is routed to ``fail_sink`` (the recorder wires this to the
    ``<base>.failed`` series with the same labels) instead of being
    observed here.  The exception always propagates.
    """

    __slots__ = ("_fail_sink",)

    def __init__(self, name: str, sink: Sink = None, series=None,
                 fail_sink: Sink = None):
        super().__init__(name, sink, series)
        self._fail_sink = fail_sink

    def observe_failure(self, value: float) -> None:
        """Record a failed-operation duration (separate stream; does not
        enter this histogram's distribution)."""
        if self._fail_sink is not None:
            self._fail_sink(float(value))

    class _Running:
        __slots__ = ("_timer", "_sim", "_started", "_done")

        def __init__(self, timer: "Timer", sim):
            self._timer = timer
            self._sim = sim
            self._started = sim.now
            self._done = False

        @property
        def elapsed(self) -> float:
            return self._sim.now - self._started

        def stop(self) -> float:
            """Observe and return the elapsed duration."""
            elapsed = self.elapsed
            self._done = True
            self._timer.observe(elapsed)
            return elapsed

        def fail(self) -> float:
            """Record the elapsed duration as a failed operation's and
            return it."""
            elapsed = self.elapsed
            self._done = True
            self._timer.observe_failure(elapsed)
            return elapsed

        def __enter__(self) -> "Timer._Running":
            return self

        def __exit__(self, exc_type, exc, tb) -> bool:
            if self._done:
                return False
            if exc_type is None:
                self.stop()
            else:
                self.fail()
            return False

    def time(self, sim) -> "Timer._Running":
        """Start timing at ``sim.now``; stop(), fail() or context-exit
        records the duration."""
        return Timer._Running(self, sim)
