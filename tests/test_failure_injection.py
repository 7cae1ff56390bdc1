"""Failure-injection tests: partitions, mid-transfer cancellations,
capacity exhaustion and other unhappy paths across modules."""

import numpy as np
import pytest

from repro.hypervisor import (
    Dirtier,
    LiveMigrator,
    MemoryImage,
    PhysicalHost,
    VirtualMachine,
)
from repro.network import (
    Connection,
    ConnectionBroken,
    FlowScheduler,
    NoRoute,
    Site,
    Topology,
    mbit_per_s,
)
from repro.simkernel import Simulator
from repro.vine import ViNeOverlay
from repro.workloads import web_server

from tests.dirtier_oracle import queued_owners
from tests.test_sky_federation import build_federation


def test_partition_breaks_new_flows_but_not_reachability_check():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    flow = sched.start_flow("a", "b", 1e6)
    sim.run(until=flow.done)
    topo.disconnect("a", "b")
    with pytest.raises(NoRoute):
        sched.start_flow("a", "b", 1e6)
    assert not topo.reachable_directly("a", "b")


def test_tcp_breaks_when_partition_outlasts_rto():
    sim, topo, sched, hosts, overlay = _overlay_world()
    vm1 = _vm(sim, hosts, "a", "vm1")
    vm2 = _vm(sim, hosts, "b", "vm2")
    overlay.register(vm1)
    overlay.register(vm2)
    conn = Connection(sim, sched, overlay, vm1, vm2, rto_budget=3.0,
                      retry_interval=0.2)
    outcome = []

    def app(sim):
        yield conn.send(1e5)
        # Partition: route lookups keep succeeding at the overlay level,
        # so simulate routing loss by poisoning the routers' tables.
        for router in overlay.routers.values():
            router.forget(vm2.address.host)
        try:
            yield conn.send(1e5)
        except ConnectionBroken:
            outcome.append("broken")

    sim.process(app(sim))
    sim.run()
    assert outcome == ["broken"]


def _overlay_world():
    sim = Simulator()
    topo = Topology()
    for name in "ab":
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=mbit_per_s(100), latency=0.02)
    sched = FlowScheduler(sim, topo)
    hosts = {s: PhysicalHost(f"h-{s}", s, cores=32) for s in "ab"}
    overlay = ViNeOverlay(sim, topo, ["a", "b"])
    return sim, topo, sched, hosts, overlay


def _vm(sim, hosts, site, name, pages=512):
    vm = VirtualMachine(sim, name, MemoryImage(pages))
    hosts[site].place(vm)
    vm.boot()
    return vm


def test_migration_during_heavy_competing_traffic_still_completes():
    """Cross traffic slows migration but never starves it (max-min)."""
    sim, topo, sched, hosts, overlay = _overlay_world()
    rng = np.random.default_rng(0)
    profile = web_server()
    vm = VirtualMachine(sim, "vm", profile.generate_memory(rng, 4096))
    hosts["a"].place(vm)
    vm.boot()
    Dirtier(sim, vm, profile, rng)

    # Saturating background flows in the same direction.
    for _ in range(4):
        f = sched.start_flow("a", "b", 1e9, tag="background")
        f.done.defused = True

    migrator = LiveMigrator(sim, sched)
    dst = PhysicalHost("h-b2", "b", cores=32)
    stats = sim.run(until=migrator.migrate(vm, dst))
    assert vm.host is dst
    # Fair share of 100 Mbit/s across 5+ flows: clearly slower than alone.
    assert stats.duration > 4096 * 4096 / mbit_per_s(100)
    vm.stop()


def test_double_migration_of_same_vm_serializes_state():
    """Migrating a VM twice in a row lands it at the final destination
    with consistent host bookkeeping."""
    sim, fed = build_federation(n_clouds=3)
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 1))
    vm = cluster.vms[0]
    from repro.sky import SkyMigrationService
    service = SkyMigrationService(fed)
    first_dst = "cloud-b" if vm.site != "cloud-b" else "cloud-c"
    sim.run(until=service.migrate_vm(vm, first_dst))
    second_dst = "cloud-c" if first_dst != "cloud-c" else "cloud-a"
    sim.run(until=service.migrate_vm(vm, second_dst))
    assert vm.site == second_dst
    assert sum(vm in h.vms for c in fed.clouds.values()
               for h in c.hosts) == 1
    assert fed.overlay.stale_routers(vm) == []


def test_spot_reclaim_during_rescue_race_is_consistent():
    """Price recovers during the grace window *after* a rescue started:
    the instance still ends in exactly one coherent state."""
    from repro.cloud import SpotMarket, SpotState
    from repro.sky import MigratableSpotManager
    from repro.workloads import SpotPriceProcess

    sim, fed = build_federation(n_clouds=2)
    cloud_a = fed.cloud("cloud-a")
    times = np.array([0.0, 500.0, 560.0])
    prices = np.array([0.03, 0.50, 0.03])  # spike, then recovery
    market = SpotMarket(sim, cloud_a, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=120.0)
    manager = MigratableSpotManager(fed)
    manager.attach(market)
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    fed.overlay.register(inst.vm)
    sim.run()
    # Rescue started before the recovery; the VM lives at exactly one
    # cloud and its state is one of the coherent outcomes.
    assert inst.state in (SpotState.RESCUED, SpotState.RUNNING)
    owners = [c.name for c in fed.clouds.values()
              if inst.vm in c.instances]
    assert len(owners) == 1


def test_provisioning_failure_mid_batch_is_atomic_error():
    """A batch that cannot fully fit fails before placing anything."""
    sim, fed = build_federation(n_clouds=1, hosts_per_cloud=1, cores=4)
    cloud = fed.cloud("cloud-a")
    proc = cloud.run_instances("debian", 5)  # 5 > 4 cores
    from repro.cloud import CloudError
    with pytest.raises(CloudError):
        sim.run(until=proc)
    # Nothing was placed or billed.
    assert cloud.instances == []
    assert all(not h.vms for h in cloud.hosts)
    assert cloud.meter.running_count == 0


def test_dirtier_stops_cleanly_when_vm_terminated_mid_migration():
    """Terminating a VM kills its dirtier without kernel errors."""
    sim, topo, sched, hosts, overlay = _overlay_world()
    rng = np.random.default_rng(1)
    profile = web_server()
    vm = VirtualMachine(sim, "vm", profile.generate_memory(rng, 2048))
    hosts["a"].place(vm)
    vm.boot()
    dirtier = Dirtier(sim, vm, profile, rng)
    sim.run(until=1.0)
    vm.stop()
    written = dirtier.pages_written
    sim.run(until=5.0)
    assert dirtier.pages_written == written
    assert not any(dirtier in owners for owners in queued_owners(sim))
