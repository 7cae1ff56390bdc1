"""Kernel self-profiling: callback-site attribution and kernel health.

Every other observability layer in this package watches the *simulated*
infrastructure; this one watches the simulator itself.  Three pieces:

:class:`CallbackProfiler`
    Installed via ``Simulator(profiler=...)`` (or :meth:`install`), it
    attributes **wall-clock self-time and event counts per callback
    site** — ``module:qualname``, resolved once per site and cached —
    from inside the kernel's batch-dispatch loop, plus batch-size and
    preemption accounting and an "obs tax" bucket isolating what the
    tracer/metrics layers cost the run.  The default is the zero-cost
    :data:`NULL_PROFILER`: the dispatch loop reads one attribute per
    *batch* and nothing per event.  Profiling reads only the wall
    clock, never the simulation clock, so same-seed runs are
    byte-identical with it on or off.

    The profiler rides the kernel's one batch loop (``Simulator.run``):
    each batch picks plain or profiled dispatch once, when it starts,
    and a profiled batch is bracketed by two hooks — one opens it
    (batch size, the kernel gap since the previous batch), one closes
    it (bills the open callback run, takes the kernel's event-count
    delta).  In between, ``Simulator._profiled_dispatch`` folds
    consecutive dispatches of the same callback object into a run
    counted with one identity check, and the wall clock is read only
    when the callback identity changes — exact attribution at a
    fraction of a clock read per event in the storm regime.

:class:`KernelStats` / :func:`kernel_stats`
    A point-in-time kernel-health snapshot — queue depth, dead-entry
    ratio, compaction count, calendar bucket shape,
    dispatch/batch/preemption counters.

Flame export
    :meth:`ProfileSnapshot.to_collapsed` and :func:`spans_to_collapsed`
    emit collapsed-stack text (``flamegraph.pl`` input);
    :func:`to_speedscope` merges the wall-clock profile and the
    sim-time span tree (via the critical path, whose segments tile the
    root exactly) into one speedscope JSON document —
    https://www.speedscope.app renders both side by side.
    :func:`validate_speedscope` structurally checks the document
    (the CI smoke gate).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..simkernel.core import NULL_PROFILER

__all__ = [
    "CallbackProfiler",
    "KernelStats",
    "NULL_PROFILER",
    "ProfileSnapshot",
    "SiteStat",
    "dump_speedscope",
    "kernel_stats",
    "profiler_of",
    "spans_to_collapsed",
    "to_speedscope",
    "validate_speedscope",
]

#: Number of log2 batch-size histogram bins (last bin is open-ended).
_BATCH_BINS = 24


def _site_name(callback) -> str:
    """``module:qualname`` of a callback, through partials and bound
    methods; callable objects fall back to their type."""
    func = callback
    while isinstance(func, functools.partial):
        func = func.func
    func = getattr(func, "__func__", func)
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if module is None or qualname is None:
        cls = type(callback)
        module, qualname = cls.__module__, f"{cls.__qualname__}.__call__"
    return f"{module}:{qualname}"


def _subsystem_of(module: str) -> str:
    """Coarse attribution bucket for a module path.  The tracer and
    metrics layers both map to ``obs`` — that bucket *is* the
    observability tax."""
    if module == "repro.metrics" or module.startswith("repro.obs"):
        return "obs"
    if module.startswith("repro."):
        return module.split(".", 2)[1]
    return module.split(".", 1)[0] if module else "?"


@dataclass(frozen=True)
class SiteStat:
    """Aggregated profile of one callback site."""

    site: str        #: ``module:qualname``
    subsystem: str   #: coarse bucket (``network``, ``obs``, ...)
    count: int       #: callback invocations of this site
    wall: float      #: wall-clock self-time, seconds

    def to_dict(self) -> dict:
        return {"site": self.site, "subsystem": self.subsystem,
                "count": self.count, "wall_s": self.wall}


@dataclass
class ProfileSnapshot:
    """A point-in-time aggregation of everything the profiler saw."""

    sites: List[SiteStat]            #: per-site stats, hottest first
    #: Events dispatched under profile, counted by the kernel's rule
    #: (equals the ``events_dispatched`` delta of :func:`kernel_stats`).
    events: int
    batches: int                     #: batches dispatched under profile
    kernel_wall: float               #: queue-pop / loop overhead, seconds
    preemptions: int                 #: mid-batch URGENT preemptions
    preempted_entries: int           #: batch entries held back by them
    batch_hist: Dict[int, int]       #: batch-size upper bound -> count
    obs_taps: Dict[str, dict] = field(default_factory=dict)

    @property
    def wall_total(self) -> float:
        """Attributed wall time: site self-times plus kernel overhead."""
        return sum(s.wall for s in self.sites) + self.kernel_wall

    @property
    def obs_tax(self) -> float:
        """Wall-clock seconds spent in the observability layers: every
        ``obs``-subsystem callback site plus the tapped tracer/metrics
        entry points (:meth:`CallbackProfiler.tap_obs`)."""
        tax = sum(s.wall for s in self.sites if s.subsystem == "obs")
        tax += sum(t["wall_s"] for t in self.obs_taps.values())
        return tax

    def by_subsystem(self) -> Dict[str, float]:
        """Self-time per subsystem bucket, descending."""
        totals: Dict[str, float] = {}
        for s in self.sites:
            totals[s.subsystem] = totals.get(s.subsystem, 0.0) + s.wall
        if self.kernel_wall:
            totals["kernel"] = totals.get("kernel", 0.0) + self.kernel_wall
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def to_dict(self) -> dict:
        return {
            "sites": [s.to_dict() for s in self.sites],
            "events": self.events,
            "batches": self.batches,
            "kernel_wall_s": self.kernel_wall,
            "wall_total_s": self.wall_total,
            "preemptions": self.preemptions,
            "preempted_entries": self.preempted_entries,
            "batch_hist": {str(k): v for k, v in self.batch_hist.items()},
            "obs_taps": dict(self.obs_taps),
            "obs_tax_s": self.obs_tax,
        }

    def format(self, top: int = 10) -> str:
        """Human-readable table of the hottest sites."""
        lines = [f"{'site':<56} {'events':>9} {'wall (s)':>9} {'%':>6}"]
        total = self.wall_total or 1.0
        for s in self.sites[:top]:
            lines.append(f"{s.site:<56} {s.count:>9} {s.wall:>9.4f} "
                         f"{s.wall / total:>6.1%}")
        lines.append(f"{'(kernel: pop/loop overhead)':<56} {'':>9} "
                     f"{self.kernel_wall:>9.4f} "
                     f"{self.kernel_wall / total:>6.1%}")
        return "\n".join(lines)

    # -- flame export ---------------------------------------------------

    def to_collapsed(self, root: str = "sim") -> str:
        """Collapsed-stack text (``flamegraph.pl`` input): one line per
        site, ``root;subsystem;module:qualname <microseconds>``,
        deterministic order."""
        lines = [f"{root};{s.subsystem};{s.site} {int(s.wall * 1e6)}"
                 for s in self.sites]
        if self.kernel_wall:
            lines.append(f"{root};kernel {int(self.kernel_wall * 1e6)}")
        for name, tap in sorted(self.obs_taps.items()):
            lines.append(f"{root};obs;{name} {int(tap['wall_s'] * 1e6)}")
        return "\n".join(sorted(lines)) + "\n"

    def dump_collapsed(self, path, root: str = "sim") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_collapsed(root=root))


class CallbackProfiler:
    """Wall-clock, per-callback-site profiler for the dispatch loop.

    Parameters
    ----------
    sim:
        The simulator to attach to (optional; ``Simulator(profiler=...)``
        back-fills it, or call :meth:`install`).
    clock:
        Wall-clock source, default :func:`time.perf_counter`.  Only ever
        read — profiling cannot shift simulated time.

    Examples
    --------
    ::

        prof = CallbackProfiler()
        sim = Simulator(profiler=prof)
        ...run the scenario...
        snap = prof.snapshot()
        print(snap.format())
        snap.dump_collapsed("profile.collapsed")   # flamegraph.pl input
    """

    def __init__(self, sim=None, clock: Callable[[], float] = time.perf_counter):
        self.sim = sim
        self._clock = clock
        self._enabled = True
        #: site key (code object or callable) -> [count, wall, exemplar].
        self._sites: Dict[Any, list] = {}
        self._taps: Dict[str, list] = {}
        self._tapped: List[tuple] = []
        self._n_batches = 0
        self._events = 0
        self._batch_hist = [0] * _BATCH_BINS
        self._preemptions = 0
        self._preempted_entries = 0
        self._kernel_wall = 0.0
        #: The kernel's event counter when the running batch opened.
        self._events_at_open = 0
        self._clear_run()
        if sim is not None:
            self.install(sim)

    def _clear_run(self) -> None:
        """Forget the open callback run and the last clock reading (so
        the gap before the next batch is not billed as kernel time)."""
        #: Run-length fold state, driven by ``Simulator._profiled_dispatch``:
        #: the callback of the open run, its length, and the clock
        #: reading where it started (0.0: none yet).
        self._last_cb = None
        self._run_count = 0
        self._last_t = 0.0

    # -- lifecycle ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether batches dispatched from now on are profiled."""
        return self._enabled

    def install(self, sim=None) -> "CallbackProfiler":
        """Attach to ``sim`` (or the one given at construction) as its
        profiler; returns self for chaining."""
        if sim is not None:
            self.sim = sim
        if self.sim is None:
            raise ValueError("no simulator to install on")
        self.sim.set_profiler(self)
        return self

    def enable(self) -> None:
        self._enabled = True
        self._clear_run()  # don't attribute the disabled gap to kernel

    def disable(self) -> None:
        """Pause profiling; accumulated samples are kept."""
        self._enabled = False

    def reset(self) -> None:
        """Drop every accumulated sample and counter."""
        self._sites.clear()
        for cell in self._taps.values():
            cell[0], cell[1] = 0, 0.0
        self._n_batches = 0
        self._events = 0
        self._batch_hist = [0] * _BATCH_BINS
        self._preemptions = 0
        self._preempted_entries = 0
        self._kernel_wall = 0.0
        self._clear_run()

    # -- kernel hooks (called from Simulator.run) -----------------------

    def _open_batch(self, n: int, n_events: int) -> None:
        """A profiled batch of ``n`` entries starts; ``n_events`` is the
        kernel's dispatched-event counter before it.  Size accounting,
        plus the inter-batch gap (queue pop, loop overhead) into the
        kernel bucket."""
        t0 = self._clock()
        if self._last_t:
            self._kernel_wall += t0 - self._last_t
        self._last_t = t0
        self._events_at_open = n_events
        self._n_batches += 1
        self._batch_hist[min(n.bit_length(), _BATCH_BINS - 1)] += 1

    def _close_run(self, callback) -> None:
        """Bill the open run (if any) up to now and start one for
        ``callback``."""
        if self._run_count:
            self._bill(self._clock())
        self._last_cb = callback

    def _close_batch(self, n_events: int) -> None:
        """The batch opened by :meth:`_open_batch` ended (normally or
        by a raise); ``n_events`` is the kernel's counter after it, so
        the profiler counts events exactly as the kernel does —
        descheduled skips and re-pushed entries excluded, events with no
        callbacks included."""
        t1 = self._clock()
        if self._run_count:
            self._bill(t1)
        self._last_t = t1
        self._last_cb = None
        self._events += n_events - self._events_at_open

    def _bill(self, t1: float) -> None:
        """Charge the open run and the wall time since the previous
        clock reading to its callback's site (keyed by code object, so
        every closure of one function shares a site)."""
        callback = self._last_cb
        try:
            key = callback.__code__
        except AttributeError:
            key = callback
        entry = self._sites.get(key)
        if entry is None:
            self._sites[key] = entry = [0, 0.0, callback]
        entry[0] += self._run_count
        entry[1] += t1 - self._last_t
        self._last_t = t1
        self._run_count = 0

    def _note_preemption(self, remaining: int) -> None:
        self._preemptions += 1
        self._preempted_entries += remaining

    # -- obs tax taps ---------------------------------------------------

    def tap_obs(self, tracer=None, metrics=None) -> "CallbackProfiler":
        """Meter the observability layers' own entry points.

        Wraps ``tracer.start``/``tracer.span`` and ``metrics.record``
        (instance-level, restorable via :meth:`untap_obs`) with
        wall-clock meters; their totals surface as ``obs_taps`` in the
        snapshot and count toward :attr:`ProfileSnapshot.obs_tax`
        alongside obs-subsystem callback sites (probe ticks)."""
        if tracer is not None:
            self._tap(tracer, "start", "trace:Tracer.start",
                      aliases=("span",))
        if metrics is not None:
            self._tap(metrics, "record", "metrics:MetricsRecorder.record")
        return self

    def untap_obs(self) -> None:
        """Restore every entry point wrapped by :meth:`tap_obs`."""
        for obj, attr, original in self._tapped:
            setattr(obj, attr, original)
        self._tapped.clear()

    def _tap(self, obj, attr: str, bucket: str, aliases=()) -> None:
        original = getattr(obj, attr)
        clock = self._clock
        cell = self._taps.setdefault(bucket, [0, 0.0])

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - t0

        for name in (attr, *aliases):
            self._tapped.append((obj, name, getattr(obj, name)))
            setattr(obj, name, timed)

    # -- snapshot -------------------------------------------------------

    def snapshot(self) -> ProfileSnapshot:
        """Aggregate everything recorded so far (names resolved and
        cached here, off the hot path)."""
        merged: Dict[str, list] = {}
        for count, wall, exemplar in self._sites.values():
            site = _site_name(exemplar)
            cell = merged.get(site)
            if cell is None:
                merged[site] = [count, wall]
            else:
                cell[0] += count
                cell[1] += wall
        sites = [
            SiteStat(site, _subsystem_of(site.split(":", 1)[0]),
                     count, wall)
            for site, (count, wall) in merged.items()
        ]
        sites.sort(key=lambda s: (-s.wall, s.site))
        hist = {2 ** max(b - 1, 0): n
                for b, n in enumerate(self._batch_hist) if n}
        taps = {name: {"count": cell[0], "wall_s": cell[1]}
                for name, cell in self._taps.items() if cell[0]}
        return ProfileSnapshot(
            sites=sites,
            events=self._events,
            batches=self._n_batches,
            kernel_wall=self._kernel_wall,
            preemptions=self._preemptions,
            preempted_entries=self._preempted_entries,
            batch_hist=hist,
            obs_taps=taps,
        )

    def __repr__(self):
        state = "on" if self._enabled else "off"
        return (f"<CallbackProfiler {state} sites={len(self._sites)} "
                f"batches={self._n_batches}>")


def profiler_of(sim):
    """The simulator's installed profiler, or :data:`NULL_PROFILER`."""
    return getattr(sim, "_profiler", NULL_PROFILER)


# -- kernel health ------------------------------------------------------


@dataclass(frozen=True)
class KernelStats:
    """Point-in-time kernel-health snapshot (see :func:`kernel_stats`)."""

    now: float
    backend: str
    queue_depth: int
    dead_entries: int
    dead_ratio: float
    compactions: int
    #: Events whose callbacks ran (entries skipped as descheduled or
    #: re-pushed after a raising callback are not counted).
    events_dispatched: int
    batches_dispatched: int
    max_batch: int
    preemptions: int
    #: Calendar-only bucket shape (``None`` on other backends).
    bucket_width: Optional[float] = None
    buckets: Optional[int] = None
    max_bucket: Optional[int] = None
    mean_bucket: Optional[float] = None

    def to_dict(self) -> dict:
        doc = {
            "now": self.now,
            "backend": self.backend,
            "queue_depth": self.queue_depth,
            "dead_entries": self.dead_entries,
            "dead_ratio": self.dead_ratio,
            "compactions": self.compactions,
            "events_dispatched": self.events_dispatched,
            "batches_dispatched": self.batches_dispatched,
            "max_batch": self.max_batch,
            "preemptions": self.preemptions,
        }
        if self.bucket_width is not None:
            doc["bucket_width"] = self.bucket_width
            doc["buckets"] = self.buckets
            doc["max_bucket"] = self.max_bucket
            doc["mean_bucket"] = self.mean_bucket
        return doc


def kernel_stats(sim) -> KernelStats:
    """Snapshot the kernel's health: queue shape, dead entries,
    compactions and dispatch counters."""
    queue = sim.queue_backend
    depth = len(queue)
    dead = getattr(queue, "dead", 0)
    stats = queue.stats() if hasattr(queue, "stats") else {}
    return KernelStats(
        now=sim.now,
        backend=getattr(queue, "name", type(queue).__name__),
        queue_depth=depth,
        dead_entries=dead,
        dead_ratio=(dead / depth) if depth else 0.0,
        compactions=getattr(queue, "compactions", 0),
        events_dispatched=sim._n_events,
        batches_dispatched=sim._n_batches,
        max_batch=sim._max_batch,
        preemptions=sim._n_preemptions,
        bucket_width=stats.get("bucket_width"),
        buckets=stats.get("buckets"),
        max_bucket=stats.get("max_bucket"),
        mean_bucket=stats.get("mean_bucket"),
    )


# -- sim-time flame (span tree) -----------------------------------------


def spans_to_collapsed(spans, root: str = "sim") -> str:
    """Collapsed-stack text of a span tree in **sim time**: one line per
    distinct ancestor chain, value = the chain's *self* microseconds
    (duration minus the parts covered by finished children, clamped at
    zero when children overlap).  Feed it to the same ``flamegraph.pl``
    as the wall-clock profile to see where simulated time went."""
    finished = [s for s in spans if s.end_time is not None]
    by_id = {s.span_id: s for s in finished}
    children: Dict[int, List] = {}
    for span in finished:
        if span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)

    def chain(span) -> str:
        names = []
        current = span
        while current is not None:
            names.append(current.name)
            current = by_id.get(current.parent_id)
        names.append(root)
        return ";".join(reversed(names))

    totals: Dict[str, float] = {}
    for span in finished:
        covered = sum(
            max(0.0, min(c.end_time, span.end_time)
                - max(c.start, span.start))
            for c in children.get(span.span_id, ()))
        self_time = max(0.0, (span.end_time - span.start) - covered)
        key = chain(span)
        totals[key] = totals.get(key, 0.0) + self_time
    lines = [f"{stack} {int(value * 1e6)}"
             for stack, value in totals.items()]
    return "\n".join(sorted(lines)) + "\n" if lines else ""


# -- speedscope export --------------------------------------------------

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def to_speedscope(profiler=None, tracer=None,
                  name: str = "repro-profile") -> dict:
    """Merge the wall-clock profile and the sim-time span tree into one
    speedscope document (https://www.speedscope.app).

    Emits up to two profiles sharing one frame table:

    * ``wall-clock`` — a *sampled* profile of the
      :class:`CallbackProfiler` site totals, stacked
      ``subsystem → site`` so hot sites group under their sim
      subsystem;
    * ``sim-time critical path`` — an *evented* profile over the
      tracer's critical path; its segments tile the root span exactly,
      which guarantees the open/close stack discipline speedscope
      requires.

    Either argument may be omitted; at least one profile must result.
    """
    frames: List[dict] = []
    index: Dict[str, int] = {}

    def frame(frame_name: str) -> int:
        i = index.get(frame_name)
        if i is None:
            index[frame_name] = i = len(frames)
            frames.append({"name": frame_name})
        return i

    profiles: List[dict] = []

    snap = profiler.snapshot() if profiler is not None else None
    if snap is not None and (snap.sites or snap.kernel_wall):
        samples: List[List[int]] = []
        weights: List[float] = []
        for s in snap.sites:
            samples.append([frame(s.subsystem), frame(s.site)])
            weights.append(s.wall)
        for tap_name, tap in sorted(snap.obs_taps.items()):
            samples.append([frame("obs"), frame(tap_name)])
            weights.append(tap["wall_s"])
        if snap.kernel_wall > 0:
            samples.append([frame("kernel")])
            weights.append(snap.kernel_wall)
        profiles.append({
            "type": "sampled",
            "name": "wall-clock",
            "unit": "seconds",
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        })

    spans = list(getattr(tracer, "spans", tracer or ()))
    if any(s.parent_id is None and s.end_time is not None for s in spans):
        from .critical_path import critical_path

        report = critical_path(spans)
        events: List[dict] = []
        open_chain: List[int] = []
        for seg in report.segments:
            seg_chain = [frame(s_name) for s_name in report.stack_of(seg.span)]
            common = 0
            while (common < len(open_chain) and common < len(seg_chain)
                   and open_chain[common] == seg_chain[common]):
                common += 1
            for f in reversed(open_chain[common:]):
                events.append({"type": "C", "frame": f, "at": seg.start})
            for f in seg_chain[common:]:
                events.append({"type": "O", "frame": f, "at": seg.start})
            open_chain = seg_chain
        end = report.root.end_time
        for f in reversed(open_chain):
            events.append({"type": "C", "frame": f, "at": end})
        profiles.append({
            "type": "evented",
            "name": "sim-time critical path",
            "unit": "seconds",
            "startValue": report.root.start,
            "endValue": end,
            "events": events,
        })

    if not profiles:
        raise ValueError(
            "nothing to export: need a profiler with samples and/or a "
            "tracer with a finished root span")
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.obs.profile",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def validate_speedscope(doc: dict) -> dict:
    """Structurally validate a speedscope document (raises
    :class:`ValueError` on the first violation; returns ``doc``).

    Checks the invariants the speedscope schema demands: the ``$schema``
    marker, a shared frame table of named frames, in-range frame
    indices, parallel ``samples``/``weights`` arrays in sampled
    profiles, and balanced, time-ordered open/close events in evented
    profiles."""
    def fail(msg: str):
        raise ValueError(f"invalid speedscope document: {msg}")

    if doc.get("$schema") != SPEEDSCOPE_SCHEMA:
        fail(f"$schema must be {SPEEDSCOPE_SCHEMA!r}")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list) or not frames:
        fail("shared.frames must be a non-empty list")
    for i, f in enumerate(frames):
        if not isinstance(f, dict) or not isinstance(f.get("name"), str):
            fail(f"frame {i} must be an object with a string name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        fail("profiles must be a non-empty list")
    n = len(frames)
    for p, profile in enumerate(profiles):
        kind = profile.get("type")
        start, end = profile.get("startValue"), profile.get("endValue")
        if not isinstance(start, (int, float)) \
                or not isinstance(end, (int, float)) or end < start:
            fail(f"profile {p}: startValue/endValue malformed")
        if kind == "sampled":
            samples, weights = profile.get("samples"), profile.get("weights")
            if not isinstance(samples, list) or not isinstance(weights, list) \
                    or len(samples) != len(weights):
                fail(f"profile {p}: samples/weights must be parallel lists")
            for stack in samples:
                if not stack or any(not isinstance(f, int) or not 0 <= f < n
                                    for f in stack):
                    fail(f"profile {p}: sample stack with bad frame index")
        elif kind == "evented":
            stack: List[int] = []
            last_at = start
            for ev in profile.get("events", ()):
                f, at = ev.get("frame"), ev.get("at")
                if not isinstance(f, int) or not 0 <= f < n:
                    fail(f"profile {p}: event frame index out of range")
                if not isinstance(at, (int, float)) or at < last_at:
                    fail(f"profile {p}: event times must be non-decreasing")
                last_at = at
                if ev.get("type") == "O":
                    stack.append(f)
                elif ev.get("type") == "C":
                    if not stack or stack.pop() != f:
                        fail(f"profile {p}: unbalanced close of frame {f}")
                else:
                    fail(f"profile {p}: event type must be 'O' or 'C'")
            if stack:
                fail(f"profile {p}: {len(stack)} frames left open")
        else:
            fail(f"profile {p}: type must be 'sampled' or 'evented'")
    return doc


def dump_speedscope(path, profiler=None, tracer=None,
                    name: str = "repro-profile") -> dict:
    """Write a validated speedscope document to ``path``; returns it."""
    doc = validate_speedscope(to_speedscope(profiler=profiler,
                                            tracer=tracer, name=name))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return doc
