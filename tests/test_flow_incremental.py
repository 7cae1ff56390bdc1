"""Differential tests for the incremental flow allocator.

The incremental mode must be *exact*: re-rating only the
bottleneck-connected component of each change has to produce the same
rates (within EPSILON) and the same completion times as the full
reference allocator, across arbitrary topologies, flow mixes, rate
caps, cancellations and runtime capacity changes.  A same-seed run must
also be bit-for-bit deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import FlowScheduler, SharedCap, Site, Topology
from repro.simkernel import Simulator

#: Snapshot offset after each scenario event: an "odd" float so sampling
#: instants never coincide with analytically nice completion times.
SNAP_DELAY = 5.41e-5


def build_topology(n_sites, bandwidths):
    topo = Topology()
    for i in range(n_sites):
        topo.add_site(Site(f"s{i}", lan_bandwidth=1e9))
    pairs = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
    for k, (i, j) in enumerate(pairs):
        topo.connect(f"s{i}", f"s{j}",
                     bandwidth=bandwidths[k % len(bandwidths)],
                     latency=0.0)
    return topo, pairs


def run_scenario(mode, n_sites, bandwidths, events):
    """Replay ``events`` under one scheduler mode.

    Returns (completion records, post-event rate snapshots); flows are
    identified by their scenario index (flow ids are a global counter
    and differ between runs).
    """
    sim = Simulator()
    topo, pairs = build_topology(n_sites, bandwidths)
    sched = FlowScheduler(sim, topo, mode=mode)
    records = []
    sched.taps.append(records.append)
    flows = []
    snapshots = []

    def driver():
        for ev in events:
            yield sim.timeout(ev["delay"])
            if ev["kind"] == "start":
                src = f"s{ev['src'] % n_sites}"
                dst = f"s{ev['dst'] % n_sites}"
                flows.append(sched.start_flow(
                    src, dst, ev["size"], rate_cap=ev["cap"],
                    weight=ev["weight"], idx=len(flows),
                ))
            elif ev["kind"] == "cancel":
                if flows:
                    sched.cancel(flows[ev["pick"] % len(flows)])
            elif ev["kind"] == "bandwidth":
                i, j = pairs[ev["pick"] % len(pairs)]
                topo.set_bandwidth(f"s{i}", f"s{j}", ev["bw"])
            yield sim.timeout(SNAP_DELAY)  # let the URGENT batch run
            snapshots.append(snapshot(sim, sched))

    sim.process(driver())
    sim.run()
    return records, snapshots


def snapshot(sim, sched):
    """Instantaneous {idx: (rate, remaining)} over the active flows.

    ``flow.remaining`` is a *settled* counter: full mode settles every
    flow on every event while incremental mode settles lazily, so the
    raw counters legitimately differ — the instantaneous value is
    ``remaining - rate * (now - last_settled)``.  Flows at exactly their
    completion instant are skipped: completion is a same-timestamp tie
    the two modes may process a zero-duration tick apart.
    """
    snap = {}
    for f in sched.active_flows:
        remaining = f.remaining - f.rate * (sim.now - f._last_settled)
        if remaining <= 1e-9 * max(1.0, f.size):
            continue
        snap[f.meta["idx"]] = (f.rate, remaining)
    return snap


def record_key(record):
    return record.meta["idx"]


_start = st.fixed_dictionaries({
    "kind": st.just("start"),
    "delay": st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    "src": st.integers(0, 5),
    "dst": st.integers(0, 5),
    "size": st.floats(1e3, 1e7, allow_nan=False, allow_infinity=False),
    "cap": st.one_of(st.none(),
                     st.floats(5e4, 5e6, allow_nan=False,
                               allow_infinity=False)),
    "weight": st.sampled_from([0.5, 1.0, 1.0, 2.0]),
})
_cancel = st.fixed_dictionaries({
    "kind": st.just("cancel"),
    "delay": st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    "pick": st.integers(0, 31),
})
_bandwidth = st.fixed_dictionaries({
    "kind": st.just("bandwidth"),
    "delay": st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    "pick": st.integers(0, 31),
    "bw": st.floats(1e5, 1e7, allow_nan=False, allow_infinity=False),
})


@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(2, 4),
    bandwidths=st.lists(
        st.floats(1e5, 1e7, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6),
    events=st.lists(st.one_of(_start, _cancel, _bandwidth),
                    min_size=1, max_size=14),
)
def test_incremental_matches_full(n_sites, bandwidths, events):
    rec_inc, snap_inc = run_scenario("incremental", n_sites, bandwidths,
                                     events)
    rec_full, snap_full = run_scenario("full", n_sites, bandwidths, events)

    # Same completions at the same times.
    assert len(rec_inc) == len(rec_full)
    for a, b in zip(sorted(rec_inc, key=record_key),
                    sorted(rec_full, key=record_key)):
        assert record_key(a) == record_key(b)
        assert a.finished_at == pytest.approx(b.finished_at,
                                              rel=1e-6, abs=1e-6)

    # Same instantaneous rates after every scenario event.
    assert len(snap_inc) == len(snap_full)
    for sa, sb in zip(snap_inc, snap_full):
        assert sorted(sa) == sorted(sb)
        for idx, (rate_a, rem_a) in sa.items():
            rate_b, rem_b = sb[idx]
            assert rate_a == pytest.approx(rate_b, rel=1e-9, abs=1e-9)
            assert rem_a == pytest.approx(rem_b, rel=1e-6, abs=1e-3)


def _seeded_events(seed, n=40):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n):
        roll = rng.random()
        delay = float(rng.uniform(0.0, 0.5))
        if roll < 0.7:
            events.append({
                "kind": "start", "delay": delay,
                "src": int(rng.integers(0, 6)), "dst": int(rng.integers(0, 6)),
                "size": float(rng.uniform(1e5, 2e7)),
                "cap": (None if rng.random() < 0.5
                        else float(rng.uniform(1e5, 5e6))),
                "weight": float(rng.choice([0.5, 1.0, 2.0])),
            })
        elif roll < 0.85:
            events.append({"kind": "cancel", "delay": delay,
                           "pick": int(rng.integers(0, 32))})
        else:
            events.append({"kind": "bandwidth", "delay": delay,
                           "pick": int(rng.integers(0, 32)),
                           "bw": float(rng.uniform(2e5, 1e7))})
    return events


@pytest.mark.parametrize("mode", ["incremental", "full"])
def test_same_seed_identical_flow_records(mode):
    """Two identical runs produce bit-for-bit identical FlowRecords."""
    def run():
        events = _seeded_events(123)
        return run_scenario(mode, 4, [2e6, 5e6, 1e6], events)

    rec1, snap1 = run()
    rec2, snap2 = run()
    flat1 = [(record_key(r), r.src, r.dst, r.size, r.started_at,
              r.finished_at) for r in rec1]
    flat2 = [(record_key(r), r.src, r.dst, r.size, r.started_at,
              r.finished_at) for r in rec2]
    assert flat1 == flat2  # same completions, same tap order, exact times
    assert snap1 == snap2  # exact rate trajectories


# -- targeted incremental-mode behaviour ---------------------------------


def two_site():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    return sim, topo, FlowScheduler(sim, topo)


def test_same_timestamp_arrivals_coalesce_into_one_batch():
    sim, topo, sched = two_site()
    f1 = sched.start_flow("a", "b", 1e6)
    f2 = sched.start_flow("a", "b", 1e6)
    sim.run(until=sim.all_of([f1.done, f2.done]))
    # The two t=0 arrivals coalesce into ONE batch; the simultaneous
    # completions at t=2 trigger one more (the second finds an empty
    # component and is a no-op).
    assert sched.stats["batches"] == 2
    assert sim.now == pytest.approx(2.0)


def test_capped_flow_timer_survives_unrelated_churn():
    """A flow pinned at its rate cap is not re-armed when neighbours
    come and go: its rate is unchanged within EPSILON."""
    sim, topo, sched = two_site()
    capped = sched.start_flow("a", "b", 1e6, rate_cap=0.2e6)

    def churn():
        yield sim.timeout(0.5)
        other = sched.start_flow("a", "b", 0.2e6)  # capped keeps 0.2 MB/s
        yield other.done

    sim.process(churn())
    sim.run(until=capped.done)
    assert sim.now == pytest.approx(5.0)  # 1 MB at the 0.2 MB/s cap
    assert sched.stats["timers_skipped"] >= 1


@pytest.mark.parametrize("mode", ["incremental", "full"])
def test_deadline_heap_stays_bounded_under_churn(mode):
    """Cancel-and-restart churn on one shared link re-arms every flow at
    every step; superseded arms are compacted away, so past the
    compaction floor the heap holds at most twice the live arms."""
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo, mode=mode)
    flows = [sched.start_flow("a", "b", 1e9) for _ in range(200)]
    for step in range(80):
        # Alternate 199 and 200 flows so every change moves every rate.
        if step % 2:
            flows.append(sched.start_flow("a", "b", 1e9))
        else:
            sched.cancel(flows.pop(0))
        sim.run(until=sim.now + 0.5)
        live = sum(flow._armed for flow in sched.active_flows)
        assert live == len(flows)
        assert len(sched._deadlines) <= max(512, 2 * live)
    assert sched.stats["timers_armed"] >= 80 * 199


def test_disjoint_components_are_not_re_rated():
    """Arrivals on one island never touch flows on another."""
    sim = Simulator()
    topo = Topology()
    for name in ("a", "b", "c", "d"):
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    topo.connect("c", "d", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    island1 = sched.start_flow("a", "b", 2e6)

    def churn():
        for _ in range(4):
            yield sim.timeout(0.3)
            yield sched.start_flow("c", "d", 1e5).done

    sim.process(churn())
    sim.run(until=island1.done)
    assert sim.now == pytest.approx(2.0)
    # island1 was rated exactly once (its own arrival); each c->d flow
    # re-rated only itself on arrival, and the departures found empty
    # components: 1 + 4 single-flow batches.
    assert sched.stats["flows_rerated"] == 5


def test_weighted_flows_share_proportionally():
    sim, topo, sched = two_site()
    heavy = sched.start_flow("a", "b", 4e6, weight=2.0)
    light = sched.start_flow("a", "b", 4e6, weight=1.0)

    def probe():
        yield sim.timeout(0.1)
        assert heavy.rate == pytest.approx(2e6 / 3)
        assert light.rate == pytest.approx(1e6 / 3)

    sim.process(probe())
    sim.run(until=light.done)


def test_shared_cap_limits_aggregate_rate_across_disjoint_paths():
    sim = Simulator()
    topo = Topology()
    for name in ("a", "b", "c", "d"):
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=1e7, latency=0.0)
    topo.connect("c", "d", bandwidth=1e7, latency=0.0)
    sched = FlowScheduler(sim, topo)
    cap = SharedCap("class:test", 1e6)
    f1 = sched.start_flow("a", "b", 1e6, shared_caps=(cap,))
    f2 = sched.start_flow("c", "d", 1e6, shared_caps=(cap,))

    def probe():
        yield sim.timeout(0.1)
        assert f1.rate + f2.rate == pytest.approx(1e6)

    sim.process(probe())
    sim.run(until=sim.all_of([f1.done, f2.done]))
    assert sim.now == pytest.approx(2.0)


def test_full_mode_rejects_unknown_mode():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    with pytest.raises(ValueError):
        FlowScheduler(sim, topo, mode="adaptive")
