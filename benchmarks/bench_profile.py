"""PROFILER OVERHEAD — what self-observation costs the hot path.

The kernel's one batch-dispatch loop picks its dispatch function once
per batch: one ``_enabled`` attribute read per *batch* (the
:data:`NULL_PROFILER` path), or a run-length-folded wall-clock
attribution path when a :class:`~repro.obs.CallbackProfiler` is
enabled.  This bench prices both against the drain scenario of
``bench_kernel`` (a tick storm at the head of a huge armed-decoy
mass), on both queue backends:

``reference``
    The pre-hook dispatch loop, reconstructed verbatim in a
    :class:`Simulator` subclass — the PR 7 kernel, measured in the
    same process so the A/B excludes machine drift.
``null``
    The shipping loop with the default :data:`NULL_PROFILER`.
    Acceptance: < 2% slower than ``reference`` (< 15% at ci scale,
    where the runs are milliseconds and the threshold is a smoke
    check, not a measurement — cross-commit regressions are caught by
    ``compare.py`` against committed baselines instead).
``enabled``
    A live :class:`CallbackProfiler`.  Acceptance: < 25% slower than
    ``reference`` (< 50% at ci scale).  The run-length fold is what
    makes this possible: ``perf_counter`` costs ~120ns on commodity
    hardware while the calendar drain dispatches every ~350ns, so
    per-event clocking would alone blow the budget.

Measurement methodology — shared machines are *hostile* to a 2%
claim.  On a 2-vCPU host the same whole drain measures anywhere
between 1x and 2x its best wall from one run to the next, so any
statistic over whole runs (best-of-40 per mode, or the median of
per-round ratios) let host noise decide a 2% verdict.  Two
measurements therefore serve two purposes:

* **throughput** (``wall_s``, ``events_per_sec``): ``ROUNDS`` whole
  drains per mode, interleaved, with the mode order rotated every
  round, ``gc.collect()`` before every timed section, and the
  **minimum** wall per mode — noise only ever adds time;
* **overhead** (the acceptance gate): each of ``PAIRED_ROUNDS`` rounds
  builds all three simulators up front, then drains them **one tick
  instant at a time, interleaved** — for every instant each mode runs
  ``sim.run(until=instant + 0.5)`` once, back to back, so the three
  walls of one instant are measured within about a millisecond of
  each other.  The mode order cycles through all six permutations,
  one per instant: calibration on a burstable host showed a
  systematic position effect (the same code measures ~15% slower in
  one slot of an A/B pair, from allocator state), and with every
  order equally often each mode runs before and after each other mode
  equally often.  Overhead is the **median of the per-instant paired
  ratios** (``null / reference``, ``enabled / reference``): a slow
  period longer than an instant scales all three walls and cancels in
  the ratio, and a burst that hits one run spoils one ratio, which the
  median discards.  The per-instant ratios have an interquartile range
  of about 8% on the calibration host, so the median of several
  hundred of them repeats to within about 1%.

All modes must dispatch identical event counts at identical final
clocks — the profiler may never touch simulated time.

Results land in ``BENCH_profile.json`` at the repo root: overhead
percentages, best per-mode drain walls, the enabled run's hottest
sites, and the profiler's own
batch accounting.  Set ``KERNEL_BENCH_SCALE=ci`` for the capped smoke
variant.
"""

import gc
import itertools
import os
import time
from statistics import median

from repro.obs import CallbackProfiler
from repro.simkernel import Simulator

from _meta import write_payload
from _tables import fmt, print_table

CI_SCALE = os.environ.get("KERNEL_BENCH_SCALE") == "ci"

if CI_SCALE:
    N_DECOYS = 20_000
    N_TICKERS = 300
    N_TICKS = 40
    MAX_NULL_OVERHEAD = 0.15
    MAX_ENABLED_OVERHEAD = 0.50
    ROUNDS = 12
    PAIRED_ROUNDS = 6
else:
    N_DECOYS = 100_000
    N_TICKERS = 500
    N_TICKS = 100
    MAX_NULL_OVERHEAD = 0.02
    MAX_ENABLED_OVERHEAD = 0.25
    ROUNDS = 40
    PAIRED_ROUNDS = 6
ROUNDS = int(os.environ.get("BENCH_PROFILE_ROUNDS", ROUNDS))
DECOY_BASE = 1e9  # far enough that decoys never dispatch


class _Pr7Simulator(Simulator):
    """The dispatch loop exactly as PR 7 shipped it: no profiler check,
    no kernel counters.  Only :meth:`run` differs from the parent."""

    def run(self, until=None):
        from repro.simkernel.core import _stop_simulation
        from repro.simkernel.errors import (EmptySchedule, StopSimulation)
        from repro.simkernel.events import Event, URGENT

        stop_event = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                self.schedule(stop_event, priority=URGENT,
                              delay=at - self._now)
                stop_event.callbacks.append(_stop_simulation)

        queue = self._queue
        batch = []
        try:
            while True:
                batch.clear()
                if not queue.pop_batch(batch):
                    raise EmptySchedule("event queue is empty")
                self._now = batch[0][0]
                self._batch_priority = batch[0][1]
                i, n = 0, len(batch)
                try:
                    while i < n:
                        event = batch[i][3]
                        i += 1
                        if event._descheduled:
                            continue
                        self._preempted = False
                        self._dispatch(event)
                        if self._preempted and i < n:
                            for j in range(i, n):
                                queue.push(batch[j])
                            i = n
                except BaseException:
                    for j in range(i, n):
                        queue.push(batch[j])
                    raise
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise
            if until is not None and not isinstance(until, Event):
                self._now = max(self._now, float(until))
            return None


def _noop(_ev):
    pass


def build_drain(queue, sim_cls=Simulator, profiler=None):
    """The bench_kernel drain shape: a tick storm pre-armed over a
    decoy mass.  Returns the simulator and its fired-tick counter."""
    sim = sim_cls(queue=queue)
    if profiler is not None:
        profiler.install(sim)
    call_in = sim.call_in
    for i in range(N_DECOYS):
        call_in(DECOY_BASE + i * 1e-3, _noop)
    fired = [0]

    def tick(_ev):
        fired[0] += 1

    for t in range(1, N_TICKS + 1):
        ft = float(t)
        for _ in range(N_TICKERS):
            call_in(ft, tick)
    return sim, fired


def run_drain(queue, sim_cls=Simulator, profiler=None):
    """One whole drain, measured from the first pop."""
    if profiler is not None:
        profiler.reset()
    sim, fired = build_drain(queue, sim_cls=sim_cls, profiler=profiler)
    gc.collect()
    wall = time.perf_counter()
    sim.run(until=N_TICKS + 0.5)
    wall = time.perf_counter() - wall
    return {"wall_s": wall, "events": fired[0], "final_now": sim.now}


def best_walls(queue, profiler, shape):
    """Rotated-order, best-of-``ROUNDS`` whole-drain walls per mode."""
    modes = [
        ("reference", lambda: run_drain(queue, sim_cls=_Pr7Simulator)),
        ("null", lambda: run_drain(queue)),
        ("enabled", lambda: run_drain(queue, profiler=profiler)),
    ]
    walls = {name: [] for name, _ in modes}
    for r in range(ROUNDS):
        rotation = modes[r % len(modes):] + modes[:r % len(modes)]
        for name, runner in rotation:
            result = runner()
            walls[name].append(result["wall_s"])
            shape.add((result["events"], result["final_now"]))
    return {name: min(ws) for name, ws in walls.items()}


def paired_overheads(queue, profiler, shape):
    """Median per-instant paired ratios over ``PAIRED_ROUNDS``
    interleaved drains (see the module docstring)."""
    orders = list(itertools.permutations(range(3)))
    ratios = {"null": [], "enabled": []}
    for r in range(PAIRED_ROUNDS):
        profiler.reset()
        drains = [build_drain(queue, sim_cls=_Pr7Simulator),
                  build_drain(queue),
                  build_drain(queue, profiler=profiler)]
        gc.collect()
        for k in range(N_TICKS):
            walls = [0.0, 0.0, 0.0]
            for m in orders[(r * N_TICKS + k) % len(orders)]:
                # Profile only this mode's own instants: enable() after
                # a disable() drops the gap, so the other modes' time
                # never lands in the profiler's kernel bucket.
                if m == 2:
                    profiler.enable()
                wall = time.perf_counter()
                drains[m][0].run(until=k + 1.5)
                walls[m] = time.perf_counter() - wall
                profiler.disable()
            ratios["null"].append(walls[1] / walls[0])
            ratios["enabled"].append(walls[2] / walls[0])
        shape.update((fired[0], sim.now) for sim, fired in drains)
    profiler.enable()
    return {name: median(rs) - 1.0 for name, rs in ratios.items()}


def measure(queue):
    """Throughput and overhead of the three modes on one backend."""
    profiler = CallbackProfiler()
    shape = set()
    overhead = paired_overheads(queue, profiler, shape)
    best = best_walls(queue, profiler, shape)
    # Every mode and round fired the same ticks and stopped at the same
    # clock: the profiler may never touch the timeline.
    assert len(shape) == 1, shape
    events = shape.pop()[0]
    return {
        "events": events,
        "rounds": ROUNDS,
        "paired_rounds": PAIRED_ROUNDS,
        "wall_s": best,
        "events_per_sec": {name: events / w for name, w in best.items()},
        "overhead_null_pct": overhead["null"],
        "overhead_enabled_pct": overhead["enabled"],
    }, profiler


def test_profiler_overhead(benchmark):
    results = {}
    snapshots = {}
    for backend in ("heap", "calendar"):
        if backend == "calendar":
            measured = benchmark.pedantic(measure, args=(backend,),
                                          rounds=1, iterations=1)
        else:
            measured = measure(backend)
        results[backend], profiler = measured
        snapshots[backend] = profiler.snapshot()

    rows = []
    for backend, r in results.items():
        rows.append((backend,
                     fmt(r["wall_s"]["reference"], 3),
                     fmt(r["wall_s"]["null"], 3),
                     fmt(r["wall_s"]["enabled"], 3),
                     f"{r['overhead_null_pct']:+.1%}",
                     f"{r['overhead_enabled_pct']:+.1%}"))
    print_table(
        f"PROFILER OVERHEAD on drain ({N_DECOYS} decoys, "
        f"{N_TICKERS} tickers x {N_TICKS} ticks: best of {ROUNDS} "
        f"walls, median per-instant overheads of {PAIRED_ROUNDS} rounds)",
        ["backend", "ref wall (s)", "null wall (s)", "prof wall (s)",
         "null ovh", "prof ovh"],
        rows)

    snap = snapshots["calendar"]
    out = {
        "config": {
            "scale": "ci" if CI_SCALE else "full",
            "n_decoys": N_DECOYS,
            "n_tickers": N_TICKERS,
            "n_ticks": N_TICKS,
            "rounds": ROUNDS,
            "paired_rounds": PAIRED_ROUNDS,
            "max_null_overhead": MAX_NULL_OVERHEAD,
            "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        },
        "backends": results,
        "headline": {
            "overhead_null_pct": results["calendar"]["overhead_null_pct"],
            "overhead_enabled_pct":
                results["calendar"]["overhead_enabled_pct"],
            "enabled_events_per_sec":
                results["calendar"]["events_per_sec"]["enabled"],
        },
        "profile": {
            "top_sites": [s.to_dict() for s in snap.sites[:10]],
            "events": snap.events,
            "batches": snap.batches,
            "kernel_wall_s": snap.kernel_wall,
            "batch_hist": {str(k): v for k, v in snap.batch_hist.items()},
        },
    }
    write_payload("profile", out)

    # Acceptance: the null hook is invisible, the enabled profiler stays
    # inside its budget, and the profiler saw every dispatched tick.
    for backend, r in results.items():
        assert r["overhead_null_pct"] < MAX_NULL_OVERHEAD, (backend, r)
        assert r["overhead_enabled_pct"] < MAX_ENABLED_OVERHEAD, (backend, r)
    assert snap.events >= results["calendar"]["events"]


if __name__ == "__main__":
    class _Shim:
        @staticmethod
        def pedantic(fn, args=(), **_):
            return fn(*args)

    test_profiler_overhead(_Shim())
