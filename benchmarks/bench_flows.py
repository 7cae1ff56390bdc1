"""FLOW CHURN — incremental vs full max-min allocation.

The federation's WAN carries hundreds of concurrent transfers
(migration rounds, image propagation, shuffle); a *global*
progressive-filling recompute costs O(flows x links) per arrival or
departure.  The scheduler settles and re-rates only the
bottleneck-connected component of each change, so churn on one site
pair never touches transfers elsewhere.

The reference is :class:`WholeNetworkScheduler`, the same scheduler
with every active flow as the component of every change.  This bench
drives both through an identical seeded storm — well over a thousand
arrivals/departures with >500 flows in flight at the peak — and checks
(a) the allocations agree (same completions at the same times) and (b)
the incremental allocator is at least 3x faster.  Exactness itself is
checked against an exact rational oracle in
``tests/test_flow_incremental.py``.
The incremental storm is additionally re-run on the calendar queue
backend, asserting byte-identical completions and recording both wall
clocks.  Results are exported to ``BENCH_flows.json`` at the repo root.
"""

import time

import numpy as np

from repro.network import FlowScheduler, Site, Topology
from repro.simkernel import Simulator

from _meta import write_payload
from _tables import fmt, print_table


N_SITES = 8
N_FLOWS = 1300
ARRIVAL_WINDOW = 100.0  # seconds over which the arrivals land


def make_workload(seed=42):
    """One seeded storm: (arrival time, src, dst, size, rate_cap)."""
    rng = np.random.default_rng(seed)
    flows = []
    for _ in range(N_FLOWS):
        src, dst = rng.choice(N_SITES, size=2, replace=False)
        flows.append((
            float(rng.uniform(0.0, ARRIVAL_WINDOW)),
            f"s{src}", f"s{dst}",
            float(rng.uniform(5e6, 12e6)),
            None if rng.random() < 0.8 else float(rng.uniform(5e4, 2e5)),
        ))
    flows.sort()
    return flows


class WholeNetworkScheduler(FlowScheduler):
    """Reference allocator: every change re-rates every active flow."""

    def _component(self, flows=(), links=()):
        return set(self._active)


def run_storm(scheduler_cls=FlowScheduler, seed=42, queue=None):
    sim = Simulator(queue=queue)
    topo = Topology()
    for i in range(N_SITES):
        topo.add_site(Site(f"s{i}"))
    for i in range(N_SITES):
        for j in range(i + 1, N_SITES):
            topo.connect(f"s{i}", f"s{j}", bandwidth=1e6, latency=0.0)
    sched = scheduler_cls(sim, topo)
    records = []
    sched.taps.append(records.append)
    peak = 0

    def driver():
        nonlocal peak
        now = 0.0
        for at, src, dst, size, cap in make_workload(seed):
            if at > now:
                yield sim.timeout(at - now)
                now = at
            sched.start_flow(src, dst, size, rate_cap=cap, tag="storm")
            peak = max(peak, len(sched.active_flows))

    sim.process(driver())
    wall = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall
    return {
        "wall_s": wall,
        "peak_concurrent": peak,
        "completions": sorted(
            ((r.src, r.dst, r.size, round(r.started_at, 6)),
             r.finished_at) for r in records),
        "makespan": sim.now,
        "stats": dict(sched.stats),
    }


def test_flow_churn_incremental_vs_full(benchmark):
    inc = benchmark.pedantic(run_storm, rounds=1, iterations=1)
    full = run_storm(WholeNetworkScheduler)
    cal = run_storm(queue="calendar")

    # Backend equivalence: the calendar queue must deliver the exact
    # same event order, hence bit-identical completion times.
    assert cal["completions"] == inc["completions"]
    assert cal["makespan"] == inc["makespan"]

    # Agreement first: both allocators complete the same flows at the
    # same times (identical keys, finish times within float noise).
    assert len(inc["completions"]) == N_FLOWS
    assert [c[0] for c in inc["completions"]] == \
           [c[0] for c in full["completions"]]
    max_delta = max(abs(a[1] - b[1]) for a, b in
                    zip(inc["completions"], full["completions"]))
    assert max_delta <= 1e-6 * full["makespan"]

    speedup = full["wall_s"] / inc["wall_s"]
    churn_events = N_FLOWS * 2  # every flow arrives and departs
    rows = [
        ("churn events", churn_events),
        ("peak concurrent flows", inc["peak_concurrent"]),
        ("makespan (sim s)", fmt(inc["makespan"], 1)),
        ("full wall (s)", fmt(full["wall_s"], 2)),
        ("incremental wall (s)", fmt(inc["wall_s"], 2)),
        ("incremental wall, calendar queue (s)", fmt(cal["wall_s"], 2)),
        ("speedup", fmt(speedup, 1) + "x"),
        ("recompute batches", inc["stats"]["batches"]),
        ("flows re-rated", inc["stats"]["flows_rerated"]),
        ("timer re-arms skipped", inc["stats"]["timers_skipped"]),
        ("max |finish delta| (s)", f"{max_delta:.2e}"),
    ]
    print_table("FLOW CHURN: incremental vs full progressive filling "
                f"({N_SITES}-site mesh)", ["metric", "value"], rows)

    out = {
        "n_flows": N_FLOWS,
        "churn_events": churn_events,
        "peak_concurrent": inc["peak_concurrent"],
        "makespan_s": inc["makespan"],
        "wall_full_s": full["wall_s"],
        "wall_incremental_s": inc["wall_s"],
        "wall_incremental_calendar_s": cal["wall_s"],
        "speedup": speedup,
        "max_finish_delta_s": max_delta,
        "incremental_stats": inc["stats"],
        "full_stats": full["stats"],
    }
    write_payload("flows", out)

    assert inc["peak_concurrent"] >= 500
    assert speedup >= 3.0


if __name__ == "__main__":
    class _Shim:
        @staticmethod
        def pedantic(fn, **_):
            return fn()

    test_flow_churn_incremental_vs_full(_Shim())
