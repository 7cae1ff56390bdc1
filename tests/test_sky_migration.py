"""Tests for cloud-API-level migration and migratable spot instances."""

import numpy as np
import pytest

from repro.cloud import SpotMarket, SpotState
from repro.hypervisor import VMState
from repro.sky import (
    FederationError,
    MigratableSpotManager,
    SkyMigrationService,
)
from repro.workloads import idle
from repro.workloads.traces import SpotPriceProcess

from tests.test_sky_federation import build_federation


def test_sky_migration_end_to_end():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    vm = cluster.members_at("cloud-a")[0]
    service = SkyMigrationService(fed)
    result = sim.run(until=service.migrate_vm(vm, "cloud-b"))
    assert vm.site == "cloud-b"
    assert vm.state is VMState.RUNNING
    assert result.src_cloud == "cloud-a"
    assert result.dst_cloud == "cloud-b"
    assert result.auth_duration >= service.crypto_handshake_time
    assert result.total_duration > result.auth_duration
    assert result.reconfigured
    # Billing moved with the VM.
    assert vm in fed.cloud("cloud-b").instances
    assert vm not in fed.cloud("cloud-a").instances
    # Overlay converged: no stale routers.
    assert fed.overlay.stale_routers(vm) == []


def test_sky_migration_dedups_disk_against_destination_repo():
    """The destination stores the same base image, so storage migration
    sends digests for base blocks, not content."""
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    vm = cluster.members_at("cloud-a")[0]
    service = SkyMigrationService(fed)
    result = sim.run(until=service.migrate_vm(vm, "cloud-b"))
    logical_disk = vm.disk.size_bytes
    # Shared fraction of the image is 75%; expect much less than full.
    assert result.stats.disk_wire_bytes < 0.5 * logical_disk


def test_sky_migration_same_cloud_rejected():
    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    vm = cluster.members_at("cloud-a")[0]
    service = SkyMigrationService(fed)
    with pytest.raises(FederationError):
        service.migrate_vm(vm, "cloud-a")


def test_spot_rescue_migrates_instead_of_killing():
    sim, fed = build_federation(n_clouds=2, prices=[0.10, 0.08])
    cloud_a = fed.cloud("cloud-a")
    times = np.array([0.0, 600.0])
    prices = np.array([0.03, 0.50])  # spike far above any sane bid
    market = SpotMarket(sim, cloud_a, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=300.0)
    manager = MigratableSpotManager(fed)
    manager.attach(market)
    rng = np.random.default_rng(3)
    profile = idle()
    inst = sim.run(until=market.request_spot(
        "debian", bid=0.10,
        memory_factory=lambda name: profile.generate_memory(rng, 2048)))
    fed.overlay.register(inst.vm)
    sim.run()
    assert inst.state is SpotState.RESCUED
    assert inst.vm.state is VMState.RUNNING
    assert inst.vm.site == "cloud-b"
    assert manager.rescues == 1
    record = manager.records[0]
    assert record.attempted and record.succeeded
    assert record.migration_duration < 300.0
    # Billing follows the instance.
    assert inst.vm in fed.cloud("cloud-b").instances


def test_spot_rescue_declines_when_grace_too_short():
    sim, fed = build_federation()
    cloud_a = fed.cloud("cloud-a")
    times = np.array([0.0, 600.0])
    prices = np.array([0.03, 0.50])
    market = SpotMarket(sim, cloud_a, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=0.5)  # half a second: hopeless
    manager = MigratableSpotManager(fed)
    manager.attach(market)
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert inst.state is SpotState.RECLAIMED
    assert not manager.records[0].attempted
    assert manager.rescues == 0


def test_spot_rescue_without_destination_falls_back_to_kill():
    sim, fed = build_federation(n_clouds=1)
    cloud_a = fed.cloud("cloud-a")
    times = np.array([0.0, 600.0])
    prices = np.array([0.03, 0.50])
    market = SpotMarket(sim, cloud_a, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=300.0)
    manager = MigratableSpotManager(fed)
    manager.attach(market)
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert inst.state is SpotState.RECLAIMED
    assert manager.records[0].to_cloud is None


def test_migration_rejected_without_trust():
    """Paper SIV: migration must not intrude on an unconsenting cloud."""
    from repro.sky import AuthenticationError

    sim, fed = build_federation()
    cluster = sim.run(until=fed.create_virtual_cluster("debian", 2))
    vm = cluster.members_at("cloud-a")[0]
    fed.cloud("cloud-b").revoke_trust("cloud-a")
    service = SkyMigrationService(fed)
    with pytest.raises(AuthenticationError):
        service.migrate_vm(vm, "cloud-b")
    # Re-establishing trust re-enables migration.
    fed.cloud("cloud-b").trust("cloud-a")
    result = sim.run(until=service.migrate_vm(vm, "cloud-b"))
    assert result.dst_cloud == "cloud-b"


def test_federation_members_trust_each_other_by_default():
    sim, fed = build_federation(n_clouds=3)
    for a in fed.clouds.values():
        for b in fed.clouds.values():
            if a is not b:
                assert b.name in a.trusted_peers


def test_spot_rescue_loses_cleanly_when_vm_released_during_auth():
    """The lease releases the VM while the two clouds authenticate: the
    rescue must report a lost race (False), not crash on the VM's
    missing host."""
    sim, fed = build_federation(n_clouds=2, prices=[0.10, 0.08])
    cloud_a = fed.cloud("cloud-a")
    times = np.array([0.0, 600.0])
    prices = np.array([0.03, 0.50])
    market = SpotMarket(sim, cloud_a, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=300.0)
    manager = MigratableSpotManager(fed)
    rescues = []

    def handler(inst):
        rescues.append(manager.rescue(market, inst))
        # Mid-authentication, the customer closes the instance.
        sim.call_in(0.1, lambda _ev: market.close(inst))
        return rescues[-1]

    market.reclaim_handler = handler
    inst = sim.run(until=market.request_spot("debian", bid=0.10))
    sim.run()
    assert len(rescues) == 1
    assert rescues[0].value is False
    record = manager.records[0]
    assert record.attempted and not record.succeeded
    assert inst.state is SpotState.CLOSED
    assert inst.vm.host is None
    assert inst.vm not in fed.cloud("cloud-b").instances
