"""KERNEL HOT PATH — queue backends and batch dispatch.

Every scale story (million-job dispatch, HTC runs, serving) bottoms out
in the simkernel event loop, so this bench measures the loop itself in
the regime the flow allocator actually creates: a huge mass of armed
far-future timers (BENCH_flows showed ~1.4M timers for 1300 flows) with
a dense tick storm at the head of the queue.

Three scenarios, each run on both queue backends:

``drain``
    The timer-dominated headline: ``N_TICKERS x N_TICKS`` tick timers
    pre-armed against ``N_DECOYS`` far-future decoys, then drained.
    Same-instant ticks pop as one contiguous batch, so the calendar
    backend pays O(log buckets) per *batch* where the heap pays
    O(log n) per *event*.  Acceptance: calendar sustains >= 1M
    events/sec and >= 3x the heap's wall clock.

``rearm``
    Self-re-arming tickers (every dispatch schedules its successor) —
    the live-flow shape, dominated by event construction rather than
    queue ops, so the backend gap narrows; recorded for transparency.

``cancel``
    Lazy cancellation: 70% of armed timers descheduled, forcing the
    >50%-dead compaction path; both backends must dispatch the exact
    survivors.

Determinism is asserted throughout: both backends fire identical event
counts at identical final clocks.  Results land in ``BENCH_kernel.json``
at the repo root.  Set ``KERNEL_BENCH_SCALE=ci`` for the capped smoke
variant (same schema, smaller constants, relaxed thresholds).
"""

import os
import time

import numpy as np

from repro.simkernel import Simulator

from _meta import write_payload
from _tables import fmt, print_table


CI_SCALE = os.environ.get("KERNEL_BENCH_SCALE") == "ci"

if CI_SCALE:
    N_DECOYS = 100_000
    N_TICKERS = 300
    N_TICKS = 60
    N_CANCEL = 40_000
    MIN_EVENTS_PER_SEC = 2e5
    MIN_SPEEDUP = 1.2
else:
    N_DECOYS = 1_000_000
    N_TICKERS = 1000
    N_TICKS = 250
    N_CANCEL = 400_000
    MIN_EVENTS_PER_SEC = 1e6
    MIN_SPEEDUP = 3.0

DECOY_BASE = 1e9  # far enough that decoys never dispatch


def _noop(_ev):
    pass


def _arm_decoys(sim):
    """The pending mass: far-future timers that never fire but sit in
    the queue for the whole run (the armed-flow-timer regime)."""
    call_in = sim.call_in
    for i in range(N_DECOYS):
        call_in(DECOY_BASE + i * 1e-3, _noop)


def run_drain(queue):
    """Pre-armed tick storm: pure pop + batch-dispatch throughput."""
    sim = Simulator(queue=queue)
    _arm_decoys(sim)
    fired = [0]

    def tick(_ev):
        fired[0] += 1

    call_in = sim.call_in
    for t in range(1, N_TICKS + 1):
        ft = float(t)
        for _ in range(N_TICKERS):
            call_in(ft, tick)
    wall = time.perf_counter()
    sim.run(until=N_TICKS + 0.5)
    wall = time.perf_counter() - wall
    return {"wall_s": wall, "events": fired[0], "final_now": sim.now,
            "events_per_sec": fired[0] / wall}


def run_rearm(queue):
    """Self-re-arming tickers: dispatch + event construction combined."""
    sim = Simulator(queue=queue)
    _arm_decoys(sim)
    fired = [0]

    def make_ticker():
        def tick(_ev):
            fired[0] += 1
            if sim.now < N_TICKS - 0.5:
                sim.call_in(1.0, tick)
        return tick

    for _ in range(N_TICKERS):
        sim.call_in(1.0, make_ticker())
    wall = time.perf_counter()
    sim.run(until=N_TICKS + 0.5)
    wall = time.perf_counter() - wall
    return {"wall_s": wall, "events": fired[0], "final_now": sim.now,
            "events_per_sec": fired[0] / wall}


def run_cancel(queue):
    """Arm N_CANCEL timers, deschedule 70%, drain the survivors —
    exercises lazy cancellation and the >50%-dead compaction."""
    sim = Simulator(queue=queue)
    fired = [0]

    def tick(_ev):
        fired[0] += 1

    rng = np.random.default_rng(11)
    delays = rng.uniform(1.0, 100.0, N_CANCEL)
    events = [sim.call_in(float(d), tick) for d in delays]
    doomed = rng.random(N_CANCEL) < 0.7
    wall = time.perf_counter()
    for ev, dead in zip(events, doomed):
        if dead:
            ev.deschedule()
    sim.run()
    wall = time.perf_counter() - wall
    return {"wall_s": wall, "events": fired[0], "final_now": sim.now,
            "events_per_sec": fired[0] / wall,
            "cancelled": int(doomed.sum())}


SCENARIOS = [
    ("drain", run_drain),
    ("rearm", run_rearm),
    ("cancel", run_cancel),
]


def test_kernel_hot_path(benchmark):
    results = {}
    for name, runner in SCENARIOS:
        if name == "drain":
            heap = benchmark.pedantic(runner, args=("heap",),
                                      rounds=1, iterations=1)
        else:
            heap = runner("heap")
        cal = runner("calendar")
        # Determinism: both backends fire the same events and end at
        # the same clock.
        assert cal["events"] == heap["events"], name
        assert cal["final_now"] == heap["final_now"], name
        results[name] = {
            "heap": heap,
            "calendar": cal,
            "speedup_calendar_vs_heap": heap["wall_s"] / cal["wall_s"],
        }

    drain = results["drain"]
    rows = []
    for name, r in results.items():
        rows.append((name,
                     fmt(r["heap"]["wall_s"], 3),
                     fmt(r["calendar"]["wall_s"], 3),
                     fmt(r["heap"]["events_per_sec"] / 1e6, 2),
                     fmt(r["calendar"]["events_per_sec"] / 1e6, 2),
                     fmt(r["speedup_calendar_vs_heap"], 2) + "x"))
    print_table(
        f"KERNEL HOT PATH ({N_DECOYS} pending decoys, "
        f"{N_TICKERS} tickers x {N_TICKS} ticks)",
        ["scenario", "heap wall (s)", "cal wall (s)",
         "heap Mev/s", "cal Mev/s", "speedup"],
        rows)

    out = {
        "config": {
            "scale": "ci" if CI_SCALE else "full",
            "n_decoys": N_DECOYS,
            "n_tickers": N_TICKERS,
            "n_ticks": N_TICKS,
            "n_cancel": N_CANCEL,
        },
        "scenarios": results,
        "headline": {
            "calendar_events_per_sec": drain["calendar"]["events_per_sec"],
            "speedup_calendar_vs_heap": drain["speedup_calendar_vs_heap"],
        },
    }
    write_payload("kernel", out)

    # Acceptance: the calendar backend sustains >= 1M events/sec in the
    # timer-dominated regime at >= 3x the heap's wall clock (relaxed
    # thresholds under KERNEL_BENCH_SCALE=ci).
    assert drain["calendar"]["events_per_sec"] >= MIN_EVENTS_PER_SEC
    assert drain["speedup_calendar_vs_heap"] >= MIN_SPEEDUP


if __name__ == "__main__":
    class _Shim:
        @staticmethod
        def pedantic(fn, args=(), **_):
            return fn(*args)

    test_kernel_hot_path(_Shim())
