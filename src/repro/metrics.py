"""Simulation instrumentation: time series, periodic probes, counters.

A production infrastructure toolkit ships observability; this module is
the simulation equivalent.  :class:`MetricsRecorder` collects named
:class:`TimeSeries`, fed either by explicit :meth:`MetricsRecorder.record`
calls or by :class:`Probe` processes that sample a callable on a fixed
period (link utilization, cluster size, spot price, registry hit rate —
anything).

Example
-------
>>> from repro.simkernel import Simulator
>>> sim = Simulator()
>>> metrics = MetricsRecorder(sim)
>>> tick = {"n": 0}
>>> def sample():
...     tick["n"] += 1
...     return tick["n"]
>>> _ = metrics.probe("ticks", sample, interval=1.0)
>>> sim.run(until=3.5)
>>> metrics.series("ticks").values()
[1, 2, 3]
"""

from __future__ import annotations

import csv
import io
from collections import deque
from functools import partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    Timer,
    _interpolated_percentile,
    labeled_name,
)
from .simkernel import Interrupt, Simulator


def recorder_of(sim: Simulator) -> Optional["MetricsRecorder"]:
    """The recorder installed on ``sim`` via
    :meth:`MetricsRecorder.install`, or ``None``.

    The discovery idiom mirrors ``tracer_of``: layers that *may* be
    observed (hypervisor, transport) look the recorder up through the
    simulator instead of threading it through every constructor."""
    return getattr(sim, "_metrics", None)


class TimeSeries:
    """A named sequence of (simulation time, value) samples.

    A series is identified by its ``base`` name and its ``labels`` (a
    dict of stringified values, empty for a flat series); :attr:`name`
    is rendered from the two once, by
    :func:`~repro.obs.instruments.labeled_name`, and is what exports key
    on.

    ``max_points`` turns the series into a bounded ring: once the
    backing list reaches twice the cap, the oldest samples are evicted
    in one chunk back down to ``max_points`` (amortized O(1) per
    record, unlike per-sample ``pop(0)``).  Aggregations then describe
    the retained tail.  :attr:`dropped` counts evicted samples and
    :attr:`total` the lifetime count, so cursor-based consumers (the
    SLO engine) can keep absolute positions across evictions.
    """

    def __init__(self, name: str, max_points: Optional[int] = None,
                 labels: Optional[Mapping[str, object]] = None):
        if max_points is not None and max_points < 1:
            raise ValueError("max_points must be >= 1")
        self.base = name
        labels = labels or {}
        self.labels: Dict[str, str] = {
            key: str(labels[key]) for key in sorted(labels)}
        self.name = labeled_name(name, self.labels)
        self.samples: List[Tuple[float, float]] = []
        self.max_points = max_points
        #: Samples evicted by the ring bound (0 for unbounded series).
        self.dropped = 0

    @property
    def total(self) -> int:
        """Lifetime sample count, evicted ones included."""
        return self.dropped + len(self.samples)

    def record(self, t: float, value) -> None:
        if self.samples and t < self.samples[-1][0]:
            raise ValueError(
                f"{self.name!r}: sample at {t} precedes the last one"
            )
        self.samples.append((t, value))
        if (self.max_points is not None
                and len(self.samples) >= 2 * self.max_points):
            excess = len(self.samples) - self.max_points
            del self.samples[:excess]
            self.dropped += excess

    def times(self) -> List[float]:
        return [t for t, _ in self.samples]

    def values(self) -> List:
        return [v for _, v in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    def last(self):
        """Most recent value (None if empty)."""
        return self.samples[-1][1] if self.samples else None

    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"{self.name!r} has no samples")
        return sum(v for _, v in self.samples) / len(self.samples)

    def maximum(self):
        if not self.samples:
            raise ValueError(f"{self.name!r} has no samples")
        return max(v for _, v in self.samples)

    def integrate(self) -> float:
        """Time-weighted integral (left-stepwise), e.g. byte-seconds."""
        total = 0.0
        for (t0, v0), (t1, _v1) in zip(self.samples, self.samples[1:]):
            total += v0 * (t1 - t0)
        return total

    def percentile(self, q: float) -> float:
        """The q-th percentile of the sampled values (linear
        interpolation between ranks; ``percentile(50)`` = median)."""
        if not self.samples:
            raise ValueError(f"{self.name!r} has no samples")
        return _interpolated_percentile(sorted(self.values()), q)

    def rate(self) -> "TimeSeries":
        """Derivative series of a monotonically increasing counter:
        one ``delta / dt`` sample per interval, timestamped at the
        interval's end (e.g. cumulative bytes -> bytes/second).

        Raises :class:`ValueError` if the series decreases or repeats a
        timestamp — those are not counters."""
        out = TimeSeries(f"{self.name}.rate")
        for (t0, v0), (t1, v1) in zip(self.samples, self.samples[1:]):
            if v1 < v0:
                raise ValueError(
                    f"{self.name!r} decreases at t={t1}; rate() needs a "
                    f"monotonically increasing counter"
                )
            if t1 == t0:
                raise ValueError(
                    f"{self.name!r} has two samples at t={t1}; rate() "
                    f"needs distinct sample times"
                )
            out.record(t1, (v1 - v0) / (t1 - t0))
        return out

    def __repr__(self):
        return f"<TimeSeries {self.name!r} n={len(self.samples)}>"


class Exemplar(NamedTuple):
    """One sampled observation linked to the trace that produced it —
    the dashboard's jump from a percentile panel to a concrete trace."""

    time: float
    value: float
    trace_id: int
    span_id: int

    def to_dict(self) -> dict:
        return {"time": self.time, "value": self.value,
                "trace_id": self.trace_id, "span_id": self.span_id}


class Probe:
    """Samples ``fn()`` every ``interval`` simulated seconds."""

    def __init__(self, sim: Simulator, series: TimeSeries,
                 fn: Callable[[], float], interval: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.series = series
        self.fn = fn
        self.interval = interval
        self.active = True
        self._pending = None
        self.process = sim.process(self._run(), name=f"probe-{series.name}")

    def stop(self) -> None:
        """Stop sampling *now*: the pending timeout is descheduled so a
        long-interval probe no longer pins the event queue until its
        next tick (``stop_all()`` really quiesces the simulation)."""
        if not self.active:
            return
        self.active = False
        pending, self._pending = self._pending, None
        if (pending is not None and self.process.is_alive
                and self.process is not self.sim.active_process
                and self.process.target is pending):
            pending.deschedule()
            self.process.interrupt("probe-stopped")

    def restart(self) -> None:
        """Resume sampling after :meth:`stop` on the same cadence; the
        first post-restart sample lands one ``interval`` from now.
        No-op while already active."""
        if self.active:
            return
        self.active = True
        self.process = self.sim.process(
            self._run(), name=f"probe-{self.series.name}")

    def _run(self):
        try:
            while self.active:
                self._pending = self.sim.timeout(self.interval)
                yield self._pending
                self._pending = None
                if not self.active:
                    return
                self.series.record(self.sim.now, self.fn())
        except Interrupt:
            return


class _ExemplarScope:
    """Re-entrant context manager marking ``span`` as the origin of
    every sample recorded inside it (see
    :meth:`MetricsRecorder.exemplar_scope`)."""

    __slots__ = ("_recorder", "_span", "_previous")

    def __init__(self, recorder: "MetricsRecorder", span):
        self._recorder = recorder
        self._span = span
        self._previous = None

    def __enter__(self):
        self._previous = self._recorder._active_span
        self._recorder._active_span = self._span
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._recorder._active_span = self._previous
        return False


class MetricsRecorder:
    """A registry of series and probes for one simulation."""

    #: Exemplars retained per series (newest win — deterministic, since
    #: arrival order is simulation order).
    EXEMPLARS_PER_SERIES = 8

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._series: Dict[str, TimeSeries] = {}
        #: Series of instrument handles that have not recorded yet; the
        #: first sample registers them, so an idle handle exports nothing.
        self._unrecorded: Dict[str, TimeSeries] = {}
        self._probes: List[Probe] = []
        self._instruments: Dict[str, Instrument] = {}
        #: (base, label set) -> instrument: a hit skips rendering the name.
        self._handles: Dict[object, Instrument] = {}
        self._exemplars: Dict[str, deque] = {}
        self._active_span = None

    def install(self) -> "MetricsRecorder":
        """Attach this recorder to the simulator so layers without a
        direct reference find it via :func:`recorder_of`."""
        self.sim._metrics = self
        return self

    def series(self, name: str, max_points: Optional[int] = None,
               labels: Optional[Mapping[str, object]] = None) -> TimeSeries:
        """Get (or create) the series ``name`` carrying ``labels``.
        ``max_points`` bounds it as a ring (see :class:`TimeSeries`); on
        an existing series the bound is (re)applied from the next
        record."""
        qualified = labeled_name(name, labels)
        ts = self._series.get(qualified)
        if ts is None:
            ts = self._unrecorded.pop(qualified, None)
            if ts is None:
                ts = TimeSeries(name, labels=labels)
            self._series[qualified] = ts
        if max_points is not None:
            if max_points < 1:
                raise ValueError("max_points must be >= 1")
            ts.max_points = max_points
        return ts

    def get(self, name: str) -> Optional[TimeSeries]:
        """The named series, or ``None`` — never creates (the read-side
        counterpart of :meth:`series` for SLO/rollup consumers)."""
        return self._series.get(name)

    def record(self, name: str, value) -> None:
        """Record a sample at the current simulation time.  Inside an
        :meth:`exemplar_scope`, the sample also lands in the series'
        exemplar reservoir, linked to the active span's trace."""
        ts = self._series.get(name)
        if ts is None:
            ts = self.series(name)
        ts.record(self.sim.now, value)
        span = self._active_span
        if span is not None and span.trace_id is not None:
            bucket = self._exemplars.get(name)
            if bucket is None:
                bucket = self._exemplars[name] = deque(
                    maxlen=self.EXEMPLARS_PER_SERIES)
            bucket.append(Exemplar(self.sim.now, value,
                                   span.trace_id, span.span_id))

    # -- exemplars ------------------------------------------------------

    def exemplar_scope(self, span) -> _ExemplarScope:
        """Tag every sample recorded inside the ``with`` block with
        ``span``'s trace identity::

            with metrics.exemplar_scope(span):
                metrics.counter("spot.episodes.resolved").inc()

        The scope must not contain simulation yields — it marks the
        synchronous instant where an instrumented operation lands its
        measurements, so interleaved processes never cross-tag.  Scopes
        nest (inner span wins); a ``NULL_SPAN`` scope records no
        exemplars."""
        return _ExemplarScope(self, span)

    def exemplars(self, name: str) -> List[Exemplar]:
        """Retained exemplars for series ``name``, oldest first."""
        return list(self._exemplars.get(name, ()))

    def exemplar_names(self) -> List[str]:
        return sorted(self._exemplars)

    def exemplars_as_dict(self) -> Dict[str, List[dict]]:
        """JSON-ready exemplar map (what the dashboard embeds)."""
        return {name: [e.to_dict() for e in bucket]
                for name, bucket in sorted(self._exemplars.items())}

    def probe(self, name: str, fn: Callable[[], float],
              interval: float = 1.0,
              max_points: Optional[int] = None,
              labels: Optional[Mapping[str, object]] = None) -> Probe:
        """Start a periodic sampler feeding series ``name`` with
        ``labels``.

        ``max_points`` ring-bounds the backing series (long-running
        probes are exactly where unbounded growth bites)."""
        probe = Probe(self.sim, self.series(name, max_points, labels),
                      fn, interval)
        self._probes.append(probe)
        return probe

    def stop_all(self) -> None:
        for probe in self._probes:
            probe.stop()

    # -- typed instruments ----------------------------------------------

    def _instrument(self, cls, base: str,
                    labels: Optional[Mapping[str, object]]):
        # Stringified values key the memo: 1, 1.0 and True are equal
        # dict keys but render to different series names.
        key = ((base, frozenset(zip(labels, map(str, labels.values()))))
               if labels else base)
        inst = self._handles.get(key)
        if inst is None:
            ts = self._unrecorded_series(base, labels)
            inst = self._instruments.get(ts.name)
            if inst is None:
                sink = partial(self.record, ts.name)
                if cls is Timer:
                    failed = self._unrecorded_series(base + ".failed", labels)
                    inst = Timer(ts.name, sink, ts, fail_sink=partial(
                        self.record, failed.name))
                elif cls is Histogram:
                    inst = Histogram(ts.name, sink, ts)
                else:
                    inst = cls(ts.name, sink)
                self._instruments[ts.name] = inst
            self._handles[key] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"{inst.name!r} is already a {type(inst).__name__}, "
                f"not a {cls.__name__}"
            )
        return inst

    def _unrecorded_series(self, base: str,
                           labels: Optional[Mapping[str, object]]
                           ) -> TimeSeries:
        """The series ``base`` + ``labels`` without registering it: the
        registered one if it exists, else one held back for the first
        :meth:`record` to register."""
        ts = TimeSeries(base, labels=labels)
        held = self._series.get(ts.name)
        if held is None:
            held = self._unrecorded.setdefault(ts.name, ts)
        return held

    def counter(self, name: str,
                labels: Optional[Mapping[str, object]] = None) -> Counter:
        """Get (or create) a :class:`~repro.obs.Counter` streaming its
        running total into series ``name`` with ``labels`` (rendered as
        e.g. ``spot.reclaims{cloud=e,tenant=a}``)."""
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, object]] = None) -> Gauge:
        """Get (or create) a :class:`~repro.obs.Gauge` streaming its
        value into series ``name`` with ``labels``."""
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, object]] = None
                  ) -> Histogram:
        """Get (or create) a :class:`~repro.obs.Histogram` streaming
        each observation into series ``name`` with ``labels``; its
        statistics read that series."""
        return self._instrument(Histogram, name, labels)

    def timer(self, name: str,
              labels: Optional[Mapping[str, object]] = None) -> Timer:
        """Get (or create) a :class:`~repro.obs.Timer` streaming each
        successful duration into series ``name`` and failed-block
        durations into ``<name>.failed``, both with ``labels``."""
        return self._instrument(Timer, name, labels)

    def names(self) -> List[str]:
        return sorted(self._series)

    def as_dict(self) -> Dict[str, List[Tuple[float, float]]]:
        """Plain-dict export (for JSON dumps or plotting)."""
        return {name: list(ts.samples) for name, ts in self._series.items()}

    def to_dict(self) -> Dict[str, Dict[str, List[float]]]:
        """Structured, JSON-ready export: every series as parallel
        ``{"times": [...], "values": [...]}`` arrays — the uniform
        shape ``BENCH_*.json`` trajectory files use."""
        return {
            name: {"times": ts.times(), "values": ts.values()}
            for name, ts in sorted(self._series.items())
        }

    def _existing(self, name: str) -> TimeSeries:
        """Lookup that refuses to create: exporters must not mint empty
        series out of typos."""
        ts = self._series.get(name)
        if ts is None:
            raise KeyError(f"no series named {name!r}")
        return ts

    def to_csv(self, name: str) -> str:
        """One series as ``time,value`` CSV text (values containing
        commas or quotes are escaped per RFC 4180).  Raises
        :class:`KeyError` for unknown names."""
        ts = self._existing(name)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["time", "value"])
        writer.writerows(ts.samples)
        return buf.getvalue()

    def dump_csv(self, path, names: Optional[List[str]] = None) -> int:
        """Write series (default: all) to ``path`` as long-format
        ``series,time,value`` CSV (UTF-8; series names containing
        commas are quoted); returns the number of rows written.
        Raises :class:`KeyError` if any requested name is unknown
        (checked up front — nothing is written on a typo)."""
        selected = names if names is not None else self.names()
        series = [self._existing(name) for name in selected]
        rows = 0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["series", "time", "value"])
            for ts in series:
                name = ts.name
                for t, v in ts.samples:
                    writer.writerow([name, t, v])
                    rows += 1
        return rows

