"""Tests for spot-price traces and the spot market."""

import numpy as np
import pytest

from repro.cloud import Cloud, SpotMarket, SpotState, make_image
from repro.hypervisor import PhysicalHost, VMState
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Simulator
from repro.workloads.traces import SpotPriceProcess, spot_price_trace


def test_trace_shape_and_determinism():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    t1, p1 = spot_price_trace(rng1, duration=3600, tick=60, base=0.03)
    t2, p2 = spot_price_trace(rng2, duration=3600, tick=60, base=0.03)
    assert np.array_equal(p1, p2)
    assert len(t1) == 61
    assert np.all(p1 > 0)


def test_trace_mean_reverts_to_base():
    rng = np.random.default_rng(7)
    _, prices = spot_price_trace(rng, duration=7 * 86400, tick=300,
                                 base=0.03, spike_prob=0.0)
    assert np.median(prices) == pytest.approx(0.03, rel=0.3)


def test_trace_floor_respected():
    rng = np.random.default_rng(1)
    _, prices = spot_price_trace(rng, duration=86400, tick=60, base=0.03,
                                 volatility=2.0, floor_factor=0.5)
    assert prices.min() >= 0.015 - 1e-12


def test_trace_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        spot_price_trace(rng, duration=0)
    with pytest.raises(ValueError):
        spot_price_trace(rng, duration=10, tick=0)


def test_price_process_replays_and_notifies():
    sim = Simulator()
    times = np.array([0.0, 10.0, 20.0])
    prices = np.array([0.03, 0.06, 0.02])
    proc = SpotPriceProcess(sim, times, prices)
    seen = []
    proc.subscribe(lambda p: seen.append((sim.now, p)))
    sim.run()
    assert seen == [(10.0, 0.06), (20.0, 0.02)]
    assert proc.current_price == 0.02
    assert proc.mean_price() == pytest.approx((0.03 + 0.06 + 0.02) / 3)


def test_price_process_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        SpotPriceProcess(sim, np.array([0.0]), np.array([]))


# -- spot market ------------------------------------------------------------


def build_market(price_points, grace=60.0):
    sim = Simulator()
    topo = Topology()
    site = topo.add_site(Site("cloud-a", lan_bandwidth=gbit_per_s(10)))
    sched = FlowScheduler(sim, topo)
    hosts = [PhysicalHost(f"h{i}", "cloud-a", cores=16) for i in range(2)]
    cloud = Cloud(sim, sched, site, hosts, boot_delay=1.0)
    rng = np.random.default_rng(0)
    cloud.repository.register(make_image("debian", rng, n_blocks=4096,
                                         default_memory_pages=1024))
    times = np.array([p[0] for p in price_points])
    prices = np.array([p[1] for p in price_points])
    market = SpotMarket(sim, cloud, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=grace)
    return sim, cloud, market


def test_spot_instance_runs_while_price_below_bid():
    sim, cloud, market = build_market([(0, 0.03), (100, 0.04), (200, 0.05)])
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert inst.state is SpotState.RUNNING
    assert inst.vm.state is VMState.RUNNING


def test_spot_bid_below_price_rejected():
    sim, cloud, market = build_market([(0, 0.05)])
    with pytest.raises(ValueError):
        market.request_spot("debian", bid=0.01)
    with pytest.raises(ValueError):
        market.request_spot("debian", bid=0)


def test_spot_instance_reclaimed_on_price_spike():
    sim, cloud, market = build_market([(0, 0.03), (500, 0.20)], grace=60)
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert inst.state is SpotState.RECLAIMED
    assert inst.vm.state is VMState.STOPPED
    assert inst.ended_at >= 500 + 60  # spike + grace window
    assert inst.reclaim_event.value == "reclaimed"


def test_spot_survives_transient_spike_within_grace():
    # Price spikes above bid at t=500 but returns at t=520 < grace end.
    sim, cloud, market = build_market(
        [(0, 0.03), (500, 0.20), (520, 0.03)], grace=60)
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert inst.state is SpotState.RUNNING


def test_customer_close_before_reclaim():
    sim, cloud, market = build_market([(0, 0.03), (500, 0.20)], grace=60)
    inst = sim.run(until=market.request_spot("debian", bid=0.10))

    def closer(sim):
        yield sim.timeout(100)
        market.close(inst)

    sim.process(closer(sim))
    sim.run()
    assert inst.state is SpotState.CLOSED
    assert cloud.instances == []


def test_reclaim_of_a_vm_its_owner_terminated_in_the_grace_window():
    """Regression: an enrolled VM terminated by its owner during the
    grace window (a failed VM its lease's health check scrubbed) made
    the kill at the window's end raise ``CloudError``.  The episode now
    resolves as closed."""
    sim, cloud, market = build_market([(0, 0.03), (500, 0.20)], grace=60)
    vm = sim.run(until=cloud.run_instances("debian", 1))[0]
    inst = market.enroll(vm, bid=0.10)
    outcomes = []
    market.on_resolution = lambda i, outcome: outcomes.append(outcome)
    sim.run(until=530)
    assert inst.reclaiming
    cloud.terminate(vm)
    sim.run()
    assert outcomes == ["closed"]
    assert inst.state is SpotState.CLOSED
    assert inst.ended_at == 560
    assert market.live_instances() == []
    assert not inst.reclaim_event.triggered


def test_reclaim_handler_rescues_instance():
    sim, cloud, market = build_market([(0, 0.03), (500, 0.20)], grace=60)

    def handler(inst):
        def _rescue():
            # Pretend a migration moved the VM out during the grace.
            yield sim.timeout(30)
            return True
        return sim.process(_rescue())

    market.reclaim_handler = handler
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert inst.state is SpotState.RESCUED
    assert inst.vm.state is VMState.RUNNING  # alive, just elsewhere
    assert inst.reclaim_event.value == "rescued"
