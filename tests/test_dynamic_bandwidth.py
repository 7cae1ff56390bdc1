"""Tests for runtime link-capacity changes (WAN congestion events)."""

import numpy as np
import pytest

from repro.hypervisor import Dirtier, LiveMigrator, VirtualMachine
from repro.network import FlowScheduler, Site, Topology
from repro.simkernel import Simulator
from repro.workloads import web_server


def build(bw=1e6):
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=bw, latency=0.0)
    sched = FlowScheduler(sim, topo)
    return sim, topo, sched


def test_set_bandwidth_validation():
    sim, topo, sched = build()
    with pytest.raises(ValueError):
        topo.set_bandwidth("a", "b", 0)
    with pytest.raises(KeyError):
        topo.set_bandwidth("a", "ghost", 1e6)


def test_flow_slows_when_link_degrades():
    sim, topo, sched = build(bw=1e6)
    flow = sched.start_flow("a", "b", 2e6)

    def congestion(sim):
        yield sim.timeout(1.0)  # 1 MB moved at 1 MB/s
        # The topology notifies the scheduler.
        topo.set_bandwidth("a", "b", 0.25e6)

    sim.process(congestion(sim))
    sim.run(until=flow.done)
    # Remaining 1 MB at 0.25 MB/s: 1 + 4 = 5 s.
    assert sim.now == pytest.approx(5.0)


def test_flow_speeds_up_when_link_recovers():
    sim, topo, sched = build(bw=0.5e6)
    flow = sched.start_flow("a", "b", 2e6)

    def upgrade(sim):
        yield sim.timeout(2.0)  # 1 MB moved
        topo.set_bandwidth("a", "b", 2e6)

    sim.process(upgrade(sim))
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(2.5)


def test_set_bandwidth_rerates_in_flight_flows():
    """set_bandwidth alone re-rates in-flight flows."""
    sim, topo, sched = build(bw=1e6)
    flow = sched.start_flow("a", "b", 2e6)

    def congestion(sim):
        yield sim.timeout(1.0)
        topo.set_bandwidth("a", "b", 0.5e6)
        yield sim.timeout(0.0)  # batched URGENT recompute has run
        assert flow.rate == pytest.approx(0.5e6)

    sim.process(congestion(sim))
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(3.0)  # 1 MB @ 1 MB/s + 1 MB @ 0.5 MB/s


def test_detached_scheduler_is_not_notified():
    sim, topo, sched = build(bw=1e6)
    flow = sched.start_flow("a", "b", 2e6)
    topo.detach(sched)

    def congestion(sim):
        yield sim.timeout(1.0)
        topo.set_bandwidth("a", "b", 0.25e6)

    sim.process(congestion(sim))
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(2.0)  # old rate kept: no listener


def test_asymmetric_runtime_change():
    sim, topo, sched = build(bw=1e6)
    topo.set_bandwidth("a", "b", 0.5e6, both_directions=False)
    fwd = sched.start_flow("a", "b", 1e6)
    rev = sched.start_flow("b", "a", 1e6)
    sim.run()
    assert fwd.finished_at == pytest.approx(2.0)
    assert rev.finished_at == pytest.approx(1.0)


def test_migration_adapts_to_congestion():
    """A migration that starts on a fast WAN survives a mid-flight
    capacity collapse — it just takes proportionally longer."""
    from repro.hypervisor import PhysicalHost

    sim, topo, sched = build(bw=125e6)  # 1 Gbit/s
    h_a = PhysicalHost("ha", "a", cores=16)
    h_b = PhysicalHost("hb", "b", cores=16)
    rng = np.random.default_rng(0)
    profile = web_server()
    vm = VirtualMachine(sim, "vm", profile.generate_memory(rng, 16384))
    h_a.place(vm)
    vm.boot()
    Dirtier(sim, vm, profile, rng)

    def congestion(sim):
        yield sim.timeout(0.2)
        topo.set_bandwidth("a", "b", 12.5e6)  # collapse to 100 Mbit/s

    sim.process(congestion(sim))
    migrator = LiveMigrator(sim, sched)
    stats = sim.run(until=migrator.migrate(vm, h_b))
    assert vm.host is h_b
    # 64 MiB at 1 Gbit/s would be ~0.55 s; the collapse stretches it.
    assert stats.duration > 2.0
    vm.stop()
