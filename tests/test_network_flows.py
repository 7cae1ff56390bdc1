"""Tests for the max-min fair flow scheduler."""

import pytest

from repro.network import (
    BillingMeter,
    FlowCancelled,
    FlowScheduler,
    Site,
    Topology,
)
from repro.simkernel import Simulator
from repro.testbeds import sky_testbed


def two_sites(bw=1e6, latency=0.0):
    topo = Topology()
    topo.add_site(Site("a", lan_bandwidth=1e9))
    topo.add_site(Site("b", lan_bandwidth=1e9))
    topo.connect("a", "b", bandwidth=bw, latency=latency)
    return topo


def test_single_flow_duration():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    flow = sched.start_flow("a", "b", size=5e6)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(5.0)


def test_latency_added_once():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6, latency=0.25))
    flow = sched.start_flow("a", "b", size=1e6)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(1.25)


def test_zero_size_flow_takes_latency_only():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(latency=0.1))
    flow = sched.start_flow("a", "b", size=0)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(0.1)


def test_negative_size_rejected():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites())
    with pytest.raises(ValueError):
        sched.start_flow("a", "b", size=-1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("size", NAN), ("size", INF),
    ("weight", NAN), ("weight", INF), ("weight", 0.0), ("weight", -1.0),
    ("rate_cap", NAN), ("rate_cap", INF), ("rate_cap", 0.0),
    ("rate_cap", -5.0),
])
def test_bad_flow_inputs_rejected_at_call_site(field, value):
    """Values that would leave a flow at a zero, negative or NaN rate
    (so ``done`` never fires) or fail later inside the batched recompute
    are refused when the flow is started."""
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites())
    with pytest.raises(ValueError):
        sched.start_flow("a", "b", **{"size": 1e6, field: value})
    assert not sched.active_flows


def test_two_flows_share_fairly():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    f1 = sched.start_flow("a", "b", size=1e6)
    f2 = sched.start_flow("a", "b", size=1e6)
    sim.run(until=sim.all_of([f1.done, f2.done]))
    # Both share 1 MB/s -> each runs at 0.5 MB/s -> 2 s.
    assert sim.now == pytest.approx(2.0)


def test_flow_speeds_up_after_competitor_finishes():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    short = sched.start_flow("a", "b", size=0.5e6)
    long = sched.start_flow("a", "b", size=1.5e6)
    sim.run(until=short.done)
    # Shared at 0.5 MB/s until short's 0.5 MB done at t=1.
    assert sim.now == pytest.approx(1.0)
    sim.run(until=long.done)
    # long had 1.0 MB left at t=1, now alone at 1 MB/s -> done at t=2.
    assert sim.now == pytest.approx(2.0)


def test_rate_cap_enforced():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    flow = sched.start_flow("a", "b", size=1e6, rate_cap=0.25e6)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(4.0)


def test_capped_flow_leaves_bandwidth_to_others():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    capped = sched.start_flow("a", "b", size=1e6, rate_cap=0.2e6)
    free = sched.start_flow("a", "b", size=1.6e6)
    sim.run(until=free.done)
    # Max-min: capped gets 0.2, free gets 0.8 -> free done at t=2.
    assert sim.now == pytest.approx(2.0)
    sim.run(until=capped.done)
    assert sim.now == pytest.approx(5.0)


def test_opposite_directions_do_not_share():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    fwd = sched.start_flow("a", "b", size=1e6)
    rev = sched.start_flow("b", "a", size=1e6)
    sim.run(until=sim.all_of([fwd.done, rev.done]))
    # Full duplex: both complete in 1 s.
    assert sim.now == pytest.approx(1.0)


def test_bottleneck_on_multihop_path():
    sim = Simulator()
    topo = Topology()
    for name in "abc":
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=10e6, latency=0.0)
    topo.connect("b", "c", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    flow = sched.start_flow("a", "c", size=2e6)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(2.0)


def test_maxmin_unequal_demands():
    """Classic max-min example: one flow crosses both links."""
    sim = Simulator()
    topo = Topology()
    for name in "abc":
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    topo.connect("b", "c", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    # ab and bc each local to one link; ac crosses both.
    f_ab = sched.start_flow("a", "b", size=10e6)
    f_bc = sched.start_flow("b", "c", size=10e6)
    f_ac = sched.start_flow("a", "c", size=1e6)
    # Max-min: each link splits 50/50 -> f_ac rate 0.5 MB/s.
    sim.run(until=f_ac.done)
    assert sim.now == pytest.approx(2.0)
    assert f_ab.transferred == pytest.approx(1e6, rel=1e-6)
    assert f_bc.transferred == pytest.approx(1e6, rel=1e-6)


def test_intra_site_flow_uses_lan():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a", lan_bandwidth=2e6))
    sched = FlowScheduler(sim, topo)
    flow = sched.start_flow("a", "a", size=4e6)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(2.0, rel=1e-3)


def test_cancel_fails_waiters():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    flow = sched.start_flow("a", "b", size=10e6)
    caught = []

    def waiter(sim):
        try:
            yield flow.done
        except FlowCancelled:
            caught.append(sim.now)

    def canceller(sim):
        yield sim.timeout(3)
        sched.cancel(flow)

    sim.process(waiter(sim))
    sim.process(canceller(sim))
    sim.run()
    assert caught == [3]
    assert flow.transferred == pytest.approx(3e6)


def test_cancel_frees_bandwidth():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    f1 = sched.start_flow("a", "b", size=10e6)
    f2 = sched.start_flow("a", "b", size=1e6)
    f1.done.defused = True

    def canceller(sim):
        yield sim.timeout(1)
        sched.cancel(f1)

    sim.process(canceller(sim))
    sim.run(until=f2.done)
    # f2: 0.5 MB in first second, then full 1 MB/s for remaining 0.5 MB.
    assert sim.now == pytest.approx(1.5)


def test_cancel_completed_flow_is_noop():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    flow = sched.start_flow("a", "b", size=1e6)
    sim.run(until=flow.done)
    sched.cancel(flow)  # must not raise


def test_billing_records_cross_site_bytes():
    sim = Simulator()
    meter = BillingMeter(price_per_gb_egress=0.10)
    sched = FlowScheduler(sim, two_sites(bw=1e6), billing=meter)
    flow = sched.start_flow("a", "b", size=3e6)
    sim.run(until=flow.done)
    assert meter.egress_bytes["a"] == pytest.approx(3e6)
    assert meter.ingress_bytes["b"] == pytest.approx(3e6)
    assert meter.total_cost() == pytest.approx(3e6 / 1e9 * 0.10)


def test_billing_ignores_intra_site():
    sim = Simulator()
    meter = BillingMeter()
    topo = Topology()
    topo.add_site(Site("a"))
    sched = FlowScheduler(sim, topo, billing=meter)
    flow = sched.start_flow("a", "a", size=3e6)
    sim.run(until=flow.done)
    assert meter.total_cross_site_bytes == 0


def test_billing_partial_on_cancel():
    sim = Simulator()
    meter = BillingMeter()
    sched = FlowScheduler(sim, two_sites(bw=1e6), billing=meter)
    flow = sched.start_flow("a", "b", size=10e6)
    flow.done.defused = True

    def canceller(sim):
        yield sim.timeout(2)
        sched.cancel(flow)

    sim.process(canceller(sim))
    sim.run()
    assert meter.egress_bytes["a"] == pytest.approx(2e6)


def test_taps_receive_flow_records():
    sim = Simulator()
    sched = FlowScheduler(sim, two_sites(bw=1e6))
    records = []
    sched.taps.append(records.append)
    sched.start_flow("a", "b", size=1e6, tag="migration", src_vm="vm1")
    sim.run()
    assert len(records) == 1
    rec = records[0]
    assert rec.src == "a" and rec.dst == "b"
    assert rec.tag == "migration"
    assert rec.meta["src_vm"] == "vm1"
    assert rec.duration == pytest.approx(1.0)


def test_batched_recompute_settles_and_bills_in_flow_id_order():
    """Billing sums are float sums: the batched recompute must settle
    the component in flow-id order, not in memory-address set order."""
    sim = Simulator()
    topo = Topology()
    for name in ["m", "d"] + [f"s{i}" for i in range(40)]:
        topo.add_site(Site(name))
    topo.connect("m", "d", bandwidth=1e6, latency=0.0)
    for i in range(40):
        topo.connect(f"s{i}", "m", bandwidth=1e9, latency=0.0)
    meter = BillingMeter()
    sched = FlowScheduler(sim, topo, billing=meter)
    billed = []
    record = meter.record

    def spy(src, dst, nbytes):
        billed.append((sim.now, src))
        record(src, dst, nbytes)

    meter.record = spy
    ids = {}

    def arrive(src):
        ids[src] = sched.start_flow(src, "d", size=1e12).id

    for i in range(37):
        arrive(f"s{i}")
    for t in (1, 2, 3):
        # One arrival per instant re-rates (and settles) everyone.
        sim.call_in(t, lambda _ev, src=f"s{36 + t}": arrive(src))
    sim.run(until=3.5)
    for t in (1, 2, 3):
        at_t = [ids[src] for now, src in billed if now == t]
        assert len(at_t) == 36 + t
        assert at_t == sorted(at_t)


def finish_within(sim, done, max_steps):
    """Step ``sim`` until ``done`` triggers; the number of steps taken,
    or ``None`` once ``max_steps`` pass without it."""
    for steps in range(max_steps):
        if done.triggered:
            return steps
        sim.step()
    return None


def test_drift_below_the_clock_resolution_finishes_the_flow():
    """At t=3600 the clock's resolution is ~4.5e-13 s: a 65,536-byte
    flow on a 1.25e9 B/s link wakes with ~2.6e-4 B left, whose drain
    time is below the resolution.  Re-arming it would wake again at the
    same instant with nothing moved, forever; it finishes instead."""
    sim = Simulator()
    sim.run(until=3600.0)
    sched = FlowScheduler(sim, two_sites(bw=1.25e9))
    flow = sched.start_flow("a", "b", size=65536.0)
    assert finish_within(sim, flow.done, 50) is not None
    assert flow.finished_at == pytest.approx(3600.0 + 65536.0 / 1.25e9)
    assert flow.remaining == 0.0 and not sched.active_flows


def test_cluster_contextualized_an_hour_in_completes():
    """The same drift, end to end: contextualizing a one-VM cluster on
    the paper testbed an hour into the run."""
    tb = sky_testbed(seed=0)
    tb.sim.run(until=3600.0)
    cluster = tb.federation.create_virtual_cluster(tb.image_name, 1)
    assert finish_within(tb.sim, cluster, 1000) is not None
    assert len(cluster.value) == 1
