"""End-to-end integration tests: the full paper story in one simulation.

Each test exercises several subsystems together, asserting cross-module
invariants (billing consistency, overlay convergence, registry reuse,
work conservation) rather than re-testing units.
"""

import numpy as np
import pytest

from repro.autonomic import AdaptationEngine
from repro.emr import DeadlineScalePolicy, ElasticMapReduceService
from repro.hypervisor import VMState
from repro.mapreduce import JobTracker, MapReduceJob
from repro.network import Connection
from repro.patterns import (
    GroundTruthRecorder,
    HypervisorSniffer,
    cosine_similarity,
)
from repro.sky import SkyMigrationService
from repro.testbeds import SiteSpec, sky_testbed, two_cloud_testbed
from repro.workloads import blast_job, run_pattern


def test_full_story_detect_adapt_survive():
    """Sky cluster -> transparent detection -> adaptation -> TCP alive."""
    tb = sky_testbed(
        sites=[SiteSpec("rennes", region="eu", n_hosts=10),
               SiteSpec("chicago", region="us", n_hosts=10)],
        memory_pages=1024, image_blocks=4096,
    )
    sim, fed = tb.sim, tb.federation
    cluster = sim.run(until=fed.create_virtual_cluster(tb.image_name, 8))
    vms = cluster.vms

    # Interleaved groups (evens/odds) across the Atlantic.
    pattern = [(i, j, 2e6 if i % 2 == j % 2 else 5e4)
               for i in range(8) for j in range(8) if i != j]
    truth = GroundTruthRecorder()
    sniffer = HypervisorSniffer(tb.scheduler, tags={"app"})
    sim.run(until=run_pattern(sim, tb.scheduler, vms, pattern, rounds=2,
                              recorder=truth))
    assert cosine_similarity(sniffer.matrix, truth.matrix) > 0.99

    conn = Connection(sim, tb.scheduler, fed.overlay, vms[0], vms[2],
                      rto_budget=60.0)
    engine = AdaptationEngine(fed)
    report = sim.run(until=engine.adapt(vms, sniffer.matrix))
    assert report.migrations > 0
    assert report.cut_after < report.cut_before

    # Overlay fully converged for every VM after the adaptation.
    for vm in vms:
        assert fed.overlay.stale_routers(vm) == []

    # The TCP connection still works.
    sent = []

    def talk(sim):
        sent.append((yield conn.send(1e5)))

    sim.process(talk(sim))
    sim.run()
    assert sent == [1e5]
    assert conn.alive

    # Billing consistency: each VM billed in exactly one cloud.
    for vm in vms:
        owners = [c for c in fed.clouds.values() if vm in c.instances]
        assert len(owners) == 1
        assert owners[0].name == vm.site


def test_billing_ingress_equals_egress_globally():
    tb = two_cloud_testbed(memory_pages=1024, image_blocks=4096)
    sim = tb.sim
    cluster = sim.run(until=tb.federation.create_virtual_cluster(
        tb.image_name, 6))
    jt = JobTracker(sim, tb.scheduler, rng=np.random.default_rng(0))
    for vm in cluster:
        jt.add_tracker(vm)
    job = blast_job(np.random.default_rng(1), n_query_batches=12,
                    mean_batch_seconds=10)
    sim.run(until=jt.submit(job))
    total_egress = sum(tb.billing.egress_bytes.values())
    total_ingress = sum(tb.billing.ingress_bytes.values())
    assert total_egress == pytest.approx(total_ingress)
    assert total_egress == pytest.approx(tb.billing.total_cross_site_bytes)


def test_registry_persists_across_migrations():
    """A second migration to the same site reuses the first's registry."""
    from repro.workloads import idle

    tb = two_cloud_testbed(memory_pages=2048, image_blocks=4096)
    sim, fed = tb.sim, tb.federation
    profile = idle()
    rng = np.random.default_rng(4)
    cluster = sim.run(until=fed.create_virtual_cluster(
        tb.image_name, 4,
        memory_factory=lambda name: profile.generate_memory(rng, 2048)))
    service = SkyMigrationService(fed)
    movers = cluster.members_at("rennes")
    assert len(movers) >= 2
    r1 = sim.run(until=service.migrate_vm(movers[0], "chicago"))
    r2 = sim.run(until=service.migrate_vm(movers[1], "chicago"))
    # Identical images and zeroed memory: the second move dedups nearly
    # everything the first one transferred.
    assert r2.stats.wire_bytes < 0.5 * r1.stats.wire_bytes
    assert r2.stats.disk_wire_bytes <= r1.stats.disk_wire_bytes


def test_emr_deadline_story_with_real_provisioning_latency():
    tb = sky_testbed(
        sites=[SiteSpec("a", region="eu", on_demand_hourly=0.10),
               SiteSpec("b", region="us", on_demand_hourly=0.05)],
        memory_pages=1024, image_blocks=4096,
    )
    service = ElasticMapReduceService(tb.federation, tb.image_name,
                                      rng=np.random.default_rng(0))
    emr = tb.sim.run(until=service.create_cluster(2))
    job = blast_job(np.random.default_rng(2), n_query_batches=24,
                    mean_batch_seconds=30)
    deadline = tb.sim.now + 250.0
    report = tb.sim.run(until=service.run_job(
        emr, job, deadline=deadline,
        scale_policy=DeadlineScalePolicy(check_interval=20, step=4)))
    assert report.deadline_met
    assert report.nodes_added > 0
    # After release, only the base cluster is billed forward.
    running = sum(len(c.instances) for c in tb.federation.clouds.values())
    assert running == 2


def test_spot_rescue_preserves_memory_contents():
    """The migrated spot VM arrives with its exact memory state."""
    from repro.cloud import SpotMarket, SpotState
    from repro.sky import MigratableSpotManager
    from repro.workloads import SpotPriceProcess

    tb = two_cloud_testbed(memory_pages=1024, image_blocks=4096)
    sim, fed = tb.sim, tb.federation
    times = np.array([0.0, 500.0])
    prices = np.array([0.02, 0.50])
    market = SpotMarket(sim, tb.clouds["rennes"],
                        SpotPriceProcess(sim, times, prices),
                        reclaim_grace=200.0)
    MigratableSpotManager(fed).attach(market)
    inst = sim.run(until=market.request_spot("debian", bid=0.05))
    fed.overlay.register(inst.vm)
    # Write a recognizable pattern into guest memory.
    marker = np.arange(100, dtype=np.uint64) + np.uint64(1 << 62)
    inst.vm.memory.write(np.arange(100), marker)
    snapshot = inst.vm.memory.pages.copy()
    sim.run()
    assert inst.state is SpotState.RESCUED
    assert inst.vm.site == "chicago"
    assert inst.vm.state is VMState.RUNNING
    np.testing.assert_array_equal(inst.vm.memory.pages, snapshot)


def test_cluster_startup_then_job_then_teardown_cycle():
    """Repeated provision/run/release cycles leave no residue."""
    tb = two_cloud_testbed(memory_pages=1024, image_blocks=4096)
    service = ElasticMapReduceService(tb.federation, tb.image_name,
                                      rng=np.random.default_rng(0))
    makespans = []
    for cycle in range(3):
        emr = tb.sim.run(until=service.create_cluster(4))
        job = blast_job(np.random.default_rng(cycle), n_query_batches=8,
                        mean_batch_seconds=10)
        report = tb.sim.run(until=service.run_job(emr, job))
        makespans.append(report.makespan)
        service.release_cluster(emr)
        assert all(len(c.instances) == 0
                   for c in tb.federation.clouds.values())
        assert len(tb.federation.overlay.members) == 0
    # Warm image caches: later cycles never slower to provision.
    assert len(makespans) == 3


def test_sky_blast_keeps_the_clock_a_python_float():
    """SCALE at smoke size: a 32-VM chain+CoW cluster on four clouds
    running a 128-batch BLAST job whose task times are NumPy floats.
    They reach the kernel as delays; the clock must stay a ``float``."""
    tb = sky_testbed(
        sites=[SiteSpec(f"c{i}", n_hosts=3, cores_per_host=16,
                        region="eu" if i < 2 else "us")
               for i in range(4)],
        memory_pages=256, image_blocks=1024, seed=0)
    sim = tb.sim
    cluster = sim.run(until=tb.federation.create_virtual_cluster(
        tb.image_name, 32))
    rng = np.random.default_rng(1)
    job = MapReduceJob("blast", rng.lognormal(np.log(60.0), 0.25, 128),
                       np.full(1, 5.0), split_bytes=1e6,
                       map_output_bytes=256 * 1024)
    jt = JobTracker(sim, tb.scheduler, rng=np.random.default_rng(2))
    for vm in cluster:
        jt.add_tracker(vm)
    result = sim.run(until=jt.submit(job))
    assert result.local_maps + result.remote_maps == 128
    assert type(sim.now) is float
    assert type(result.makespan) is float
