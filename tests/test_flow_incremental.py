"""Property tests for the incremental flow allocator against an exact
oracle.

Re-rating only the bottleneck-connected component of each change has to
be *exact*: across arbitrary topologies, flow mixes, weights, rate caps,
cancellations and runtime capacity changes, the live rates must equal
the exact rational max-min allocation
(:func:`tests.flow_oracle.maxmin`) of the flows in flight, and every
completion time must equal the exact fluid replay of the run
(:func:`tests.flow_oracle.replay`), both to a relative 1e-12.  A
same-seed run must also be bit-for-bit deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import FlowScheduler, Site, Topology
from repro.simkernel import Simulator

from tests.flow_oracle import FlowLog, maxmin, rel_err, replay

#: Snapshot offset after each scenario event: an "odd" float so sampling
#: instants never coincide with analytically nice completion times.
SNAP_DELAY = 5.41e-5
#: Largest relative distance from the exact oracle, for rates and times.
REL = 1e-12


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


def run_scenario(n_sites, bandwidths, events):
    """Replay ``events``.

    Returns (flow log, post-event snapshots); flows are identified by
    their scenario index (flow ids are a global counter and differ
    between runs).
    """
    sim = Simulator()
    topo, pairs = build_topology(n_sites, bandwidths)
    sched = FlowScheduler(sim, topo)
    log = FlowLog(sched)
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
    return log, snapshots


def snapshot(sim, sched):
    """``{idx: (rate, remaining, exact rate)}`` over the active flows.

    ``remaining`` is the instantaneous value ``remaining - rate * (now -
    last_settled)`` (the counter is settled lazily); the exact rate is
    the oracle's allocation of the same flows at today's capacities.
    """
    active = sched.active_flows
    exact = maxmin(active, {link: link.bandwidth
                            for f in active for link in f.links})
    return {f.meta["idx"]: (f.rate,
                            f.remaining - f.rate * (sim.now - f._last_settled),
                            exact[f])
            for f in active}


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
_bw = st.floats(1e5, 1e7, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(2, 4),
    bandwidths=st.lists(_bw, min_size=1, max_size=6),
    events=st.lists(st.one_of(_start, _cancel, _bandwidth),
                    min_size=1, max_size=14),
)
def test_incremental_matches_exact_oracle(n_sites, bandwidths, events):
    log, snapshots = run_scenario(n_sites, bandwidths, events)

    # The exact max-min rates after every scenario event.
    for snap in snapshots:
        for rate, _remaining, exact in snap.values():
            assert rel_err(rate, exact) <= REL

    # The same completions as the exact fluid replay, at the same times.
    finished = replay(log)
    assert {f for f in log.flows if f.finished_at is not None} \
        == set(finished)
    for flow, at in finished.items():
        assert rel_err(flow.finished_at, at) <= REL


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


def test_same_seed_identical_flow_records():
    """Two identical runs produce bit-for-bit identical FlowRecords."""
    def run():
        events = _seeded_events(123)
        return run_scenario(4, [2e6, 5e6, 1e6], events)

    (log1, snap1), (log2, snap2) = run(), run()
    flat1 = [(r.meta["idx"], r.src, r.dst, r.size, r.started_at,
              r.finished_at) for r in log1.records]
    flat2 = [(r.meta["idx"], r.src, r.dst, r.size, r.started_at,
              r.finished_at) for r in log2.records]
    assert flat1 == flat2  # same completions, same tap order, exact times
    assert snap1 == snap2  # exact rate trajectories


def run_single_link(bandwidths, events, cap_factor):
    """Replay ``events`` on one a<->b link, every flow on one of its two
    directions: two weighted processor-sharing components.  With a
    ``cap_factor`` every flow also gets a rate cap of that many times
    the largest link capacity of the run, which never binds.

    Returns the rates after each event and the completions, by flow
    index.
    """
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=bandwidths[0], latency=0.0)
    sched = FlowScheduler(sim, topo)
    cap = cap_factor * max(bandwidths) if cap_factor else None
    flows, rates, done = [], [], {}
    sched.taps.append(lambda r: done.__setitem__(r.meta["idx"],
                                                 r.finished_at))

    def driver():
        for ev in events:
            yield sim.timeout(ev["delay"])
            if ev["kind"] == "start":
                src, dst = ("a", "b") if ev["forward"] else ("b", "a")
                flows.append(sched.start_flow(
                    src, dst, ev["size"], rate_cap=cap,
                    weight=ev["weight"], idx=len(flows)))
            elif ev["kind"] == "cancel":
                if flows:
                    sched.cancel(flows[ev["pick"] % len(flows)])
            else:
                topo.set_bandwidth(
                    "a", "b", bandwidths[ev["pick"] % len(bandwidths)])
            yield sim.timeout(SNAP_DELAY)
            rates.append({f.meta["idx"]: f.rate
                          for f in sched.active_flows})

    sim.process(driver())
    sim.run()
    return rates, done


_ps_start = st.fixed_dictionaries({
    "kind": st.just("start"),
    "delay": st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    "forward": st.booleans(),
    "size": st.floats(1e3, 1e7, allow_nan=False, allow_infinity=False),
    "weight": st.floats(0.05, 20.0, allow_nan=False,
                        allow_infinity=False).filter(lambda w: w != 1.0),
})
_ps_other = st.fixed_dictionaries({
    "kind": st.sampled_from(["cancel", "bandwidth"]),
    "delay": st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    "pick": st.integers(0, 31),
})


@settings(max_examples=60, deadline=None)
@given(
    bandwidths=st.lists(_bw, min_size=1, max_size=3),
    events=st.lists(st.one_of(_ps_start, _ps_start, _ps_other),
                    min_size=2, max_size=16),
    cap_factor=st.floats(2.0, 50.0),
)
def test_single_link_rates_equal_general_fill(bandwidths, events,
                                              cap_factor):
    """A one-link, uncapped component takes the one-round fill; a
    non-binding per-flow rate cap sends the same flows through the
    general progressive-filling loop.  Rates and completion times must
    be equal, not merely close."""
    assert run_single_link(bandwidths, events, 0.0) \
        == run_single_link(bandwidths, events, cap_factor)


# -- targeted allocator behaviour ---------------------------------


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


def retained_arms(sched):
    """Arms held across every run of the deadline heap, stale or live;
    a lazy run of a processor-sharing link holds the ``n`` it was armed
    with."""
    return sum(len(run.arms) if hasattr(run, "arms") else run.n
               for _time, _seq, run in sched._deadlines)


def test_deadline_heap_stays_bounded_under_churn():
    """Cancel-and-restart churn on one shared link re-arms every flow at
    every step; superseded arms are compacted away, so past the
    compaction floor the runs retain at most twice the live arms."""
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    flows = [sched.start_flow("a", "b", 1e9) for _ in range(200)]
    for step in range(80):
        # Alternate 199 and 200 flows so every change moves every rate.
        if step % 2:
            flows.append(sched.start_flow("a", "b", 1e9))
        else:
            sched.cancel(flows.pop(0))
        sim.run(until=sim.now + 0.5)
        live = sum(flow._run is not None for flow in sched.active_flows)
        assert live == len(flows)
        assert retained_arms(sched) <= max(512, 2 * live)
    assert sched.stats["timers_armed"] >= 80 * 199


def test_pinned_run_does_not_retain_its_siblings_stale_arms():
    """A capped flow keeps its rate, so its first arm is never re-armed:
    its run stays live, headed by the earliest deadline, while every
    sibling arm in it and in each later run is superseded step after
    step.  Compaction still bounds what the runs retain."""
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    pinned = sched.start_flow("a", "b", 1e6, rate_cap=1e3)
    flows = [sched.start_flow("a", "b", 1e9) for _ in range(150)]
    sim.run(until=0.5)
    first = pinned._run
    for step in range(120):
        # Ever fewer siblings: each step makes every sibling arm stale
        # and arms the new ones earlier than the old.
        sched.cancel(flows.pop() if step % 3 else flows.pop(0))
        if step % 3 == 0:
            flows.append(sched.start_flow("a", "b", 1e9))
        sim.run(until=sim.now + 0.5)
        assert pinned._run is first and pinned.rate == 1e3
        live = sum(flow._run is not None for flow in sched.active_flows)
        assert live == len(flows) + 1
        assert retained_arms(sched) <= max(512, 2 * live)
    assert sched.stats["timers_skipped"] >= 120


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


def test_a_redefined_component_is_walked_on_every_batch():
    """Processor-sharing batches skip the component walk only for the
    scheduler's own ``_component``: a subclass that redefines it (the
    whole-network reference of ``benchmarks/bench_flows.py``) is asked
    on every batch, and completes the same cascade at the same times."""

    class Walking(FlowScheduler):
        walks = 0

        def _component(self, flows=(), links=()):
            self.walks += 1
            return super()._component(flows, links)

    def cascade(make):
        sim = Simulator()
        topo = Topology()
        topo.add_site(Site("a"))
        topo.add_site(Site("b"))
        topo.connect("a", "b", bandwidth=2.0 ** 20, latency=0.0)
        sched = make(sim, topo)
        done = []
        sched.taps.append(lambda r: done.append(r.finished_at))
        for _ in range(8):  # one timer each: eight batches at t=0
            sim.call_in(0.0, lambda _ev: sched.start_flow("a", "b", 2.0 ** 16))
        sim.run()
        return sched, done, sim._seq

    walking, done, seq = cascade(Walking)
    lazy, lazy_done, lazy_seq = cascade(FlowScheduler)
    assert walking.stats["batches"] == lazy.stats["batches"] == 8 + 7
    assert walking.walks >= walking.stats["batches"]
    assert (done, seq) == (lazy_done, lazy_seq)
