"""Tests for the federation, placement policies, cluster lifecycle."""

import gc

import numpy as np
import pytest

from repro.cloud import Cloud, InstancePricing, InstanceSpec, make_image
from repro.hypervisor import PhysicalHost, VMState
from repro.network import (
    BillingMeter,
    FlowScheduler,
    Site,
    Topology,
    gbit_per_s,
    mbit_per_s,
)
from repro.simkernel import Simulator
from repro.sky import (
    Balanced,
    CapacityProportional,
    CheapestFirst,
    Federation,
    FederationError,
    PlacementError,
    SingleCloud,
)
from repro.vine import VINE_NETWORK


def build_federation(n_clouds=2, hosts_per_cloud=4, cores=16,
                     prices=None, natted=()):
    sim = Simulator()
    topo = Topology()
    sched = FlowScheduler(sim, topo, billing=BillingMeter())
    clouds = []
    rng = np.random.default_rng(0)
    names = [f"cloud-{chr(97 + i)}" for i in range(n_clouds)]
    for i, name in enumerate(names):
        site = topo.add_site(Site(name, lan_bandwidth=gbit_per_s(10),
                                  public_addresses=name not in natted))
        hosts = [
            PhysicalHost(f"{name}-h{j}", name, cores=cores,
                         ram_bytes=256 * 2**30)
            for j in range(hosts_per_cloud)
        ]
        pricing = InstancePricing(
            on_demand_hourly=(prices[i] if prices else 0.10))
        cloud = Cloud(sim, sched, site, hosts, pricing=pricing,
                      boot_delay=2.0)
        cloud.repository.register(
            make_image("debian", rng, n_blocks=8192,
                       default_memory_pages=2048))
        clouds.append(cloud)
    for i in range(n_clouds):
        for j in range(i + 1, n_clouds):
            topo.connect(names[i], names[j],
                         bandwidth=mbit_per_s(500), latency=0.05)
    federation = Federation(sim, topo, sched, clouds)
    return sim, federation


# -- policies ----------------------------------------------------------------


def test_single_cloud_policy():
    sim, fed = build_federation()
    policy = SingleCloud("cloud-a")
    alloc = policy.allocate(list(fed.clouds.values()), 4, InstanceSpec())
    assert alloc == {"cloud-a": 4}


def test_single_cloud_policy_errors():
    sim, fed = build_federation()
    with pytest.raises(PlacementError):
        SingleCloud("nope").allocate(list(fed.clouds.values()), 1,
                                     InstanceSpec())
    with pytest.raises(PlacementError):
        SingleCloud("cloud-a").allocate(list(fed.clouds.values()), 10_000,
                                        InstanceSpec())


def test_balanced_policy_splits_evenly():
    sim, fed = build_federation(n_clouds=2)
    alloc = Balanced().allocate(list(fed.clouds.values()), 8, InstanceSpec())
    assert alloc == {"cloud-a": 4, "cloud-b": 4}


def test_balanced_policy_overflow():
    sim, fed = build_federation(n_clouds=2)
    with pytest.raises(PlacementError):
        Balanced().allocate(list(fed.clouds.values()), 10_000, InstanceSpec())


def test_capacity_proportional_policy():
    sim, fed = build_federation(n_clouds=2)
    clouds = list(fed.clouds.values())
    # Occupy half of cloud-a.
    sim.run(until=clouds[0].run_instances("debian", 32))
    alloc = CapacityProportional().allocate(clouds, 30, InstanceSpec())
    assert alloc["cloud-b"] > alloc.get("cloud-a", 0)
    assert sum(alloc.values()) == 30


def test_cheapest_first_policy():
    sim, fed = build_federation(n_clouds=3, prices=[0.30, 0.10, 0.20])
    clouds = list(fed.clouds.values())
    alloc = CheapestFirst().allocate(clouds, 4, InstanceSpec())
    assert alloc == {"cloud-b": 4}
    big = CheapestFirst().allocate(clouds, 70, InstanceSpec())
    assert big["cloud-b"] == 64  # 4 hosts x 16 cores
    assert big["cloud-c"] == 6


# -- federation --------------------------------------------------------------


def test_federation_requires_clouds():
    sim = Simulator()
    topo = Topology()
    sched = FlowScheduler(sim, topo)
    with pytest.raises(FederationError):
        Federation(sim, topo, sched, [])


def test_create_cluster_spans_clouds():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 8))
    assert len(cluster) == 8
    dist = cluster.site_distribution()
    assert dist == {"cloud-a": 4, "cloud-b": 4}
    assert all(vm.state is VMState.RUNNING for vm in cluster)
    # All members joined the overlay with location-independent addresses.
    assert all(vm.address.network == VINE_NETWORK for vm in cluster)
    assert cluster.master in cluster.vms


def test_create_cluster_missing_image_rejected():
    sim, fed = build_federation()
    with pytest.raises(FederationError):
        fed.create_virtual_cluster("ghost", 4)


def test_create_cluster_size_validation():
    sim, fed = build_federation()
    with pytest.raises(ValueError):
        fed.create_virtual_cluster("debian", 0)


def test_cluster_grow_adds_overlaid_members():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 4))
    new = sim.run(until=cluster.grow(3, cloud_name="cloud-b"))
    assert len(cluster) == 7
    assert all(vm.site == "cloud-b" for vm in new)
    assert all(vm.address.network == VINE_NETWORK for vm in new)


def test_cluster_shrink_terminates_members():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 4))
    victims = cluster.workers[:2]
    fed.shrink_cluster(cluster, victims)
    assert len(cluster) == 2
    assert all(vm.state is VMState.STOPPED for vm in victims)


def test_cluster_shrink_protects_master():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    with pytest.raises(FederationError):
        fed.shrink_cluster(cluster, [cluster.master])


def test_cloud_of_finds_owner():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    vm = cluster.vms[0]
    assert fed.cloud_of(vm).name == vm.site
    from repro.hypervisor import MemoryImage, VirtualMachine
    stranger = VirtualMachine(sim, "x", MemoryImage(8))
    with pytest.raises(FederationError):
        fed.cloud_of(stranger)


def test_cluster_members_at_natted_cloud_still_reachable():
    """Sky computing's point: private clouds join via the overlay."""
    sim, fed = build_federation(natted=("cloud-b",))
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 4))
    a_vm = cluster.members_at("cloud-a")[0]
    b_vm = cluster.members_at("cloud-b")[0]
    assert not fed.topology.reachable_directly("cloud-a", "cloud-b")
    assert fed.overlay.resolve(a_vm, b_vm) is not None


class _Fixed:
    """Placement policy returning a pre-computed split."""

    def __init__(self, allocation):
        self.allocation = allocation

    def allocate(self, clouds, n, spec):
        return dict(self.allocation)


def _assert_nothing_left(fed):
    for cloud in fed.clouds.values():
        assert cloud.instances == []
        assert cloud.meter._open == {}
        for host in cloud.hosts:
            assert host.vms == [] and host.used_cores == 0
    assert fed.clusters == []
    assert fed.overlay.members == {}


def test_failed_multi_cloud_create_rolls_back_every_batch():
    """Cloud b cannot place 6 instances on 4 cores: the caller gets its
    CloudError, and cloud a's batch, still booting, returns its hosts
    and addresses instead of booting into a cluster nobody owns."""
    from repro.cloud import CloudError

    sim, fed = build_federation(hosts_per_cloud=1, cores=4)
    proc = fed.create_virtual_cluster(
        "debian", 8, policy=_Fixed({"cloud-a": 2, "cloud-b": 6}))
    with pytest.raises(CloudError):
        sim.run(until=proc)
    sim.run(until=sim.now + 60.0)  # long past cloud a's boot
    _assert_nothing_left(fed)
    assert all(c.address_pool.in_use == 0 for c in fed.clouds.values())


def test_a_refused_batch_rolls_back_the_batches_started_before_it():
    from repro.cloud import QuotaExceeded

    sim, fed = build_federation(hosts_per_cloud=1, cores=4)
    fed.cloud("cloud-b").quota = 1
    proc = fed.create_virtual_cluster(
        "debian", 4, policy=_Fixed({"cloud-a": 2, "cloud-b": 2}))
    with pytest.raises(QuotaExceeded):
        sim.run(until=proc)
    sim.run(until=sim.now + 60.0)
    _assert_nothing_left(fed)
    assert all(c.address_pool.in_use == 0 for c in fed.clouds.values())


def test_a_batch_failing_after_another_booted_terminates_the_booted():
    sim, fed = build_federation(hosts_per_cloud=1, cores=4)
    a, b = fed.cloud("cloud-a"), fed.cloud("cloud-b")
    a.cache.put(a.hosts[0], "debian")  # a warm, b chains its image in
    batches = fed.launch("debian", {"cloud-a": 2, "cloud-b": 2}, "vc")
    proc = sim.process(fed.assemble("vc", "debian", batches))
    sim.run(until=batches[0])
    assert len(a.instances) == 2 and batches[1].is_alive
    batches[1].interrupt("lost")
    with pytest.raises(Exception, match="lost"):
        sim.run(until=proc)
    sim.run(until=sim.now + 60.0)
    _assert_nothing_left(fed)
    # The booted VMs were billed for their short life, then stopped.
    assert [seg[0] for seg in a.meter._closed] == ["vc-cloud-a-1",
                                                   "vc-cloud-a-2"]


def test_a_simulation_dropped_mid_provision_is_freed_in_one_collection():
    """Closing a suspended batch or assembly (GeneratorExit, when the
    collector finalizes a dropped simulation) runs no roll-back: one
    that scheduled interrupts would keep the simulation alive until a
    second full collection."""
    def abandon():
        sim, fed = build_federation()
        fed.create_virtual_cluster("debian", 4)
        sim.run(until=1.0)  # batches still deploying, assembly waiting

    abandon()
    gc.collect()
    gc.disable()
    try:
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_terminate_leaves_an_overlay_member_with_the_same_host_id():
    """A bare instance's NAT address ``cloud-a/2`` shares host id 2
    with the overlay address of a cluster member at cloud b: retiring
    the bare VM must leave that member in the overlay."""
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    member = cluster.members_at("cloud-b")[0]
    bare = sim.run(until=fed.cloud("cloud-a").run_instances("debian", 1))[0]
    assert bare.address.network == "cloud-a"
    assert bare.address.host == member.address.host
    fed.terminate(bare)
    assert fed.overlay.members[member.address.host] is member
    assert bare not in fed.cloud("cloud-a").instances
    assert bare.state is VMState.STOPPED
