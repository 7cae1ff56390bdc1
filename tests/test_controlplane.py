"""Tests for the multi-tenant control plane: admission, leases,
fair-share dispatch, elasticity, self-healing, determinism."""

import numpy as np
import pytest

from repro.cloud import CloudError, InstanceSpec, QuotaExceeded
from repro.controlplane import (
    AdmissionError,
    ControlPlane,
    FailureInjector,
    Job,
    JobState,
    LeaseError,
    LeaseManager,
    LeaseState,
    SchedulerConfig,
    SpotPolicy,
)
from repro.controlplane.recovery import Reconciler
from repro.emr import ElasticMapReduceService
from repro.metrics import MetricsRecorder
from repro.testbeds import SiteSpec, sky_testbed
from tests.test_controlplane_spot import SPIKE, make_spot_plane, spot_testbed


def small_testbed(n_clouds=3, n_hosts=2, cores=8, seed=7):
    sites = [SiteSpec(f"c{i}", n_hosts=n_hosts, cores_per_host=cores,
                      on_demand_hourly=0.10 + 0.02 * i,
                      region="eu" if i < 2 else "us")
             for i in range(n_clouds)]
    return sky_testbed(sites=sites, memory_pages=256, image_blocks=512,
                       seed=seed)


def make_plane(tb=None, **kwargs):
    tb = tb or small_testbed()
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name,
                         **kwargs).start()
    return tb, plane


def assert_no_leaks(tb, plane):
    """Every ended lease returned its capacity to its cloud."""
    assert plane.leases.leaked() == []
    for cloud in tb.clouds.values():
        assert cloud.instances == []
        for host in cloud.hosts:
            assert host.used_cores == 0
            assert host.vms == []


# -- basic flow ----------------------------------------------------------


def test_jobs_run_to_completion_and_capacity_returns():
    tb, plane = make_plane()
    plane.register_tenant("alice")
    plane.register_tenant("bob")
    jobs = [plane.submit(t, n_nodes=2, runtime=60.0)
            for t in ("alice", "bob") for _ in range(5)]
    tb.sim.run(until=plane.all_done(jobs))
    assert all(j.state is JobState.COMPLETED for j in jobs)
    assert plane.scheduler.jobs_completed == 10
    assert all(j.wait_time is not None and j.wait_time >= 0 for j in jobs)
    assert_no_leaks(tb, plane)


def test_jobs_span_clouds_when_one_does_not_fit():
    # 3 clouds x 16 slots; a 40-node job must span.
    tb, plane = make_plane()
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=40, runtime=30.0)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert_no_leaks(tb, plane)


def test_priority_orders_jobs_within_a_tenant():
    tb, plane = make_plane(tb=small_testbed(n_clouds=1, n_hosts=1, cores=2))
    plane.register_tenant("alice")
    low = plane.submit("alice", n_nodes=2, runtime=50.0, priority=0)
    high = plane.submit("alice", n_nodes=2, runtime=50.0, priority=5)
    tb.sim.run(until=plane.all_done([low, high]))
    # Both fill the cloud entirely, so they serialize: high went first.
    assert high.started_at < low.started_at


def test_metrics_series_populated():
    tb, plane = make_plane()
    plane.register_tenant("alice")
    jobs = [plane.submit("alice", n_nodes=1, runtime=30.0)
            for _ in range(4)]
    tb.sim.run(until=plane.all_done(jobs))
    m = plane.metrics
    assert len(m.series("queue.depth")) > 0
    assert len(m.series("jobs.completed")) == 4
    assert len(m.series("queue.wait")) == 4
    assert m.series("jobs.completed").last() == 4


# -- admission control ---------------------------------------------------


def test_admission_rejects_impossible_job():
    tb, plane = make_plane()
    plane.register_tenant("alice")
    cap = plane.queue.potential_capacity()
    with pytest.raises(AdmissionError):
        plane.submit("alice", n_nodes=cap + 1, runtime=10.0)
    assert plane.queue.rejected == 1
    assert plane.queue.depth() == 0


def test_admission_rejects_unknown_tenant():
    tb, plane = make_plane()
    with pytest.raises(AdmissionError):
        plane.submit("mallory", n_nodes=1, runtime=10.0)


def test_tenant_queue_quota_enforced():
    tb, plane = make_plane()
    plane.register_tenant("alice", max_queued=2)
    plane.submit("alice", n_nodes=1, runtime=10.0)
    plane.submit("alice", n_nodes=1, runtime=10.0)
    with pytest.raises(QuotaExceeded):
        plane.submit("alice", n_nodes=1, runtime=10.0)


def test_tenant_node_quota_limits_concurrency():
    tb, plane = make_plane()
    plane.register_tenant("alice", max_nodes=2)
    jobs = [plane.submit("alice", n_nodes=2, runtime=30.0)
            for _ in range(3)]
    # The quota serializes the jobs even though the clouds have room.
    done = 0

    def watch():
        nonlocal done
        while done < 3:
            held = sum(l.n_nodes for l in plane.leases.active_leases())
            assert held <= 2
            done = plane.scheduler.jobs_completed
            yield tb.sim.timeout(5.0)

    tb.sim.process(watch())
    tb.sim.run(until=plane.all_done(jobs))
    assert all(j.state is JobState.COMPLETED for j in jobs)


# -- leases --------------------------------------------------------------


def test_lease_expiry_reclaims_capacity():
    tb = small_testbed()
    sim = tb.sim
    leases = LeaseManager(sim, tb.federation, MetricsRecorder(sim),
                          sweep_interval=10.0)
    leases.start()
    cluster = sim.run(until=tb.federation.create_virtual_cluster(
        tb.image_name, 4))
    free_before = tb.federation.total_capacity()
    lease = leases.grant("alice", cluster, term=100.0)
    assert lease.active and lease.n_nodes == 4
    sim.run(until=250.0)
    assert lease.state is LeaseState.EXPIRED
    assert lease.cluster.vms == []
    assert tb.federation.total_capacity() == free_before + 4
    assert leases.leaked() == []
    assert leases.expired_count == 1
    with pytest.raises(LeaseError):
        leases.renew(lease)
    with pytest.raises(LeaseError):
        leases.release(lease)


def test_lease_renewal_prevents_expiry():
    tb = small_testbed()
    sim = tb.sim
    leases = LeaseManager(sim, tb.federation, MetricsRecorder(sim),
                          sweep_interval=10.0)
    leases.start()
    cluster = sim.run(until=tb.federation.create_virtual_cluster(
        tb.image_name, 2))
    lease = leases.grant("alice", cluster, term=100.0)

    def renewer():
        for _ in range(5):
            yield sim.timeout(80.0)
            leases.renew(lease)

    sim.process(renewer())
    sim.run(until=420.0)
    assert lease.active
    assert lease.renewals == 5
    leases.release(lease)
    assert lease.state is LeaseState.RELEASED
    assert leases.leaked() == []


def test_scheduler_renews_leases_for_long_jobs():
    # Lease term far shorter than the job: the runner must renew.
    cfg = SchedulerConfig(interval=10.0, lease_term=60.0)
    tb, plane = make_plane(config=cfg)
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    lease = next(l for l in plane.leases.leases if l.job is job)
    assert lease.renewals > 0
    assert plane.leases.expired_count == 0
    assert_no_leaks(tb, plane)


# -- self-healing --------------------------------------------------------


def test_failed_vm_requeues_job_under_requeue_policy():
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(config=cfg, heal_policy="requeue",
                           health_interval=10.0)
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=3, runtime=200.0)

    def killer():
        yield tb.sim.timeout(40.0)
        assert job.state is JobState.RUNNING
        lease = plane.leases.active_leases()[0]
        lease.cluster.vms[-1].stop()  # simulated hardware failure

    tb.sim.process(killer())
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.attempts == 2
    assert plane.scheduler.jobs_requeued == 1
    assert any(e.action == "requeued" for e in plane.health.events)
    assert_no_leaks(tb, plane)


def test_failed_vm_replaced_under_replace_policy():
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(config=cfg, heal_policy="replace",
                           health_interval=10.0)
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=3, runtime=200.0)

    def killer():
        yield tb.sim.timeout(40.0)
        lease = plane.leases.active_leases()[0]
        victim = [vm for vm in lease.cluster.vms
                  if vm is not lease.cluster.master][0]
        victim.stop()

    tb.sim.process(killer())
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.attempts == 1  # healed in place, never requeued
    assert plane.scheduler.jobs_requeued == 0
    assert any(e.action == "replaced" for e in plane.health.events)
    assert_no_leaks(tb, plane)


def test_master_failure_forces_requeue_even_under_replace_policy():
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(config=cfg, heal_policy="replace",
                           health_interval=10.0)
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=150.0)

    def killer():
        yield tb.sim.timeout(30.0)
        plane.leases.active_leases()[0].cluster.master.stop()

    tb.sim.process(killer())
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.attempts == 2
    assert_no_leaks(tb, plane)


def test_injected_failures_all_jobs_finish_no_leaks():
    cfg = SchedulerConfig(interval=5.0, max_attempts=10)
    tb, plane = make_plane(config=cfg, heal_policy="replace",
                           health_interval=15.0)
    plane.register_tenant("alice")
    plane.register_tenant("bob", weight=2.0)
    jobs = [plane.submit(t, n_nodes=2, runtime=90.0)
            for t in ("alice", "bob") for _ in range(8)]
    injector = FailureInjector(tb.sim, plane.leases,
                               np.random.default_rng(3),
                               rate=1 / 400.0, tick=20.0)
    tb.sim.run(until=plane.all_done(jobs))
    injector.stop()
    assert all(j.state is JobState.COMPLETED for j in jobs)
    assert len(injector.killed) > 0  # the run actually saw failures
    assert plane.health.failures_seen >= len(injector.killed) - 1
    assert_no_leaks(tb, plane)


def test_drain_host_migrates_leased_vms_away():
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(config=cfg)
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=400.0)
    sim = tb.sim

    def drain():
        yield sim.timeout(30.0)
        lease = plane.leases.active_leases()[0]
        host = lease.cluster.vms[0].host
        moved = yield plane.health.drain_host(host)
        assert moved >= 1
        assert all(vm.host is not host for vm in lease.cluster.vms)

    sim.process(drain())
    sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert any(e.action == "migrated" for e in plane.health.events)
    assert_no_leaks(tb, plane)


def test_cordoned_host_excluded_from_placement_and_capacity():
    tb = small_testbed()
    cloud = tb.clouds["c0"]
    spec = InstanceSpec(memory_pages=64)
    before = cloud.capacity(spec)
    cordoned = cloud.hosts[0]

    cloud.cordon(cordoned.name)
    assert cloud.capacity(spec) < before
    proc = cloud.run_instances(tb.image_name, 4, spec)
    tb.sim.run(until=proc)
    assert cordoned.vms == []
    assert all(vm.host is not cordoned for vm in cloud.instances)

    cloud.uncordon(cordoned.name)
    assert cloud.capacity(spec) == before - 4
    with pytest.raises(CloudError):
        cloud.cordon("no-such-host")


def test_draining_host_receives_no_new_grants():
    """While a host drains, the fair-share scheduler places every new
    lease on the remaining schedulable hosts."""
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(config=cfg)
    plane.register_tenant("alice")
    sim = tb.sim
    drained = tb.clouds["c0"].hosts[0]

    def scenario():
        moved = yield plane.health.drain_host(drained)
        assert moved == 0  # nothing leased yet: draining just cordons
        assert drained.name in tb.clouds["c0"].unschedulable
        jobs = [plane.submit("alice", n_nodes=8, runtime=40.0)
                for _ in range(4)]
        while not all(j.state is JobState.COMPLETED for j in jobs):
            assert drained.vms == []  # never receives a placement
            yield sim.timeout(5.0)

    proc = sim.process(scenario())
    sim.run(until=proc)
    assert_no_leaks(tb, plane)

    plane.health.undrain_host(drained)
    assert drained.name not in tb.clouds["c0"].unschedulable
    job = plane.submit("alice", n_nodes=plane.queue.potential_capacity(),
                       runtime=10.0)
    sim.run(until=job.done)  # a full-width job needs the host back
    assert job.state is JobState.COMPLETED
    assert_no_leaks(tb, plane)


# -- elasticity ----------------------------------------------------------


def test_malleable_job_grows_into_idle_capacity():
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(config=cfg)
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=4, runtime=300.0,
                       min_nodes=2, max_nodes=16)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert plane.scheduler.grows > 0
    # More nodes than requested => finished well before runtime.
    assert job.finished_at - job.started_at < 300.0
    assert_no_leaks(tb, plane)


def test_queue_pressure_shrinks_malleable_jobs():
    tb = small_testbed(n_clouds=1, n_hosts=1, cores=8)
    cfg = SchedulerConfig(interval=5.0)
    tb, plane = make_plane(tb=tb, config=cfg)
    plane.register_tenant("alice")
    big = plane.submit("alice", n_nodes=8, runtime=200.0,
                       min_nodes=2, max_nodes=8)
    sim = tb.sim

    def pressure():
        yield sim.timeout(30.0)
        assert big.state is JobState.RUNNING
        plane.submit("alice", n_nodes=4, runtime=50.0)

    sim.process(pressure())
    sim.run(until=120.0)
    assert plane.scheduler.shrinks > 0
    sim.run(until=big.done)
    assert big.state is JobState.COMPLETED


# -- framework wiring ----------------------------------------------------


def test_framework_exposes_control_plane():
    from repro.framework import DynamicInfrastructure

    tb = small_testbed()
    infra = DynamicInfrastructure(tb)
    plane = infra.control_plane()
    assert infra.control_plane() is plane
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=30.0)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    with pytest.raises(ValueError):
        infra.control_plane(heal_policy="requeue")


# -- determinism ---------------------------------------------------------


def _scenario():
    tb, plane = make_plane(tb=small_testbed(seed=11),
                           config=SchedulerConfig(interval=5.0))
    plane.register_tenant("alice", weight=2.0)
    plane.register_tenant("bob", weight=1.0)
    jobs = []
    rng = np.random.default_rng(5)
    for i in range(20):
        tenant = "alice" if i % 2 == 0 else "bob"
        jobs.append(plane.submit(
            tenant, n_nodes=int(rng.integers(1, 4)),
            runtime=float(rng.uniform(30, 120)),
            priority=int(rng.integers(0, 3))))
    tb.sim.run(until=plane.all_done(jobs))
    trace = [(j.tenant, j.n_nodes, round(j.started_at, 6),
              round(j.finished_at, 6)) for j in jobs]
    return trace, plane.metrics.to_dict(), plane.summary()


def test_same_seed_same_schedule_and_metrics():
    trace1, metrics1, summary1 = _scenario()
    trace2, metrics2, summary2 = _scenario()
    assert trace1 == trace2
    assert metrics1 == metrics2
    assert summary1 == summary2


# -- metrics export ------------------------------------------------------


def test_metrics_to_dict_and_dump_csv(tmp_path):
    tb, plane = make_plane()
    plane.register_tenant("alice")
    jobs = [plane.submit("alice", n_nodes=1, runtime=20.0)
            for _ in range(3)]
    tb.sim.run(until=plane.all_done(jobs))
    exported = plane.metrics.to_dict()
    assert "queue.depth" in exported
    for payload in exported.values():
        assert len(payload["times"]) == len(payload["values"])
    path = tmp_path / "metrics.csv"
    rows = plane.metrics.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "series,time,value"
    assert len(lines) == rows + 1
    assert rows == sum(len(p["times"]) for p in exported.values())


# -- VM retirement --------------------------------------------------------
# Each trigger ends some VMs' lives and returns (federation, the cluster
# they belonged to, [(vm, host it ran on)]), hosts captured while alive.


def _placed(vms):
    return [(vm, vm.host) for vm in vms]


def _retire_on_release():
    tb, plane = make_plane()
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=60.0)
    tb.sim.run(until=30.0)
    lease = plane.leases.active_leases()[0]
    retired = _placed(lease.cluster.vms)
    tb.sim.run(until=job.done)
    assert lease.state is LeaseState.RELEASED
    return tb.federation, lease.cluster, retired


def _retire_on_heal(policy):
    tb, plane = make_plane(config=SchedulerConfig(interval=5.0),
                           heal_policy=policy, health_interval=10.0)
    plane.register_tenant("alice")
    plane.submit("alice", n_nodes=3, runtime=200.0)
    tb.sim.run(until=40.0)
    lease = plane.leases.active_leases()[0]
    victim = next(vm for vm in lease.cluster.vms
                  if vm is not lease.cluster.master)
    retired = _placed([victim])
    victim.stop()  # simulated hardware failure
    tb.sim.run(until=55.0)
    assert plane.health.failures_seen == 1
    return tb.federation, lease.cluster, retired


def _retire_on_spot_reclaim():
    tb, market = spot_testbed(trace=SPIKE, rescue_cloud=False)
    plane = make_spot_plane(tb, market, SpotPolicy(rescue=False))
    plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=300.0)
    lease = plane.leases.active_leases()[0]
    retired = _placed(lease.cluster.vms)
    tb.sim.run(until=425.0)  # past the kill at t=420
    assert plane.spot.outcomes["requeued"] == 1
    return tb.federation, lease.cluster, retired


def _retire_on_lease_lost():
    tb, plane = make_plane(health_interval=1e6)
    plane.register_tenant("alice")
    plane.submit("alice", n_nodes=2, runtime=300.0)
    tb.sim.run(until=60.0)
    lease = plane.leases.active_leases()[0]
    retired = _placed(lease.cluster.vms)
    for vm, _ in retired:
        vm.stop()
    healed = Reconciler(tb.sim, plane).reconcile(force=True)
    assert [d.kind for d in healed] == ["lease-lost"]
    return tb.federation, lease.cluster, retired


def _retire_orphan_vm():
    tb, plane = make_plane()
    cloud = next(iter(tb.clouds.values()))
    vms = tb.sim.run(until=cloud.run_instances(tb.image_name, 1,
                                               spec=plane.config.spec))
    tb.federation.overlay.register(vms[0])
    retired = _placed(vms)
    healed = Reconciler(tb.sim, plane).reconcile(force=True)
    assert [d.kind for d in healed] == ["orphan-vm"]
    return tb.federation, None, retired


def _retire_grown_into_ended_lease():
    # A 20 s malleable job ends while its growth is still booting.
    tb, plane = make_plane(config=SchedulerConfig(interval=5.0))
    plane.register_tenant("alice")
    leases, retired = [], []
    dispose = plane.scheduler._dispose_orphans

    def spy(lease, *args):
        leases.append(lease)
        retired.extend(_placed(args[-1]))
        dispose(lease, *args)

    plane.scheduler._dispose_orphans = spy
    job = plane.submit("alice", n_nodes=2, runtime=20.0,
                       min_nodes=2, max_nodes=16)
    tb.sim.run(until=job.done)
    tb.sim.run(until=tb.sim.now + 30.0)
    return tb.federation, leases[0].cluster, retired


def _retire_on_shrink():
    tb = small_testbed()
    fed = tb.federation
    cluster = tb.sim.run(until=fed.create_virtual_cluster(tb.image_name, 3))
    retired = _placed([vm for vm in cluster.vms if vm is not cluster.master])
    fed.shrink_cluster(cluster, [vm for vm, _ in retired])
    return fed, cluster, retired


def _retire_on_emr_release():
    tb = small_testbed()
    service = ElasticMapReduceService(tb.federation, tb.image_name,
                                      rng=np.random.default_rng(0))
    emr = tb.sim.run(until=service.create_cluster(4))
    retired = _placed(emr.cluster.vms)
    service.release_cluster(emr)
    return tb.federation, emr.cluster, retired


@pytest.mark.parametrize("trigger", [
    _retire_on_release,
    lambda: _retire_on_heal("replace"),
    lambda: _retire_on_heal("requeue"),
    _retire_on_spot_reclaim,
    _retire_on_lease_lost,
    _retire_orphan_vm,
    _retire_grown_into_ended_lease,
    _retire_on_shrink,
    _retire_on_emr_release,
], ids=["lease-release", "heal-replace", "heal-requeue", "spot-reclaim",
        "lease-lost", "orphan-vm", "grown-into-ended-lease", "shrink",
        "emr-release"])
def test_retired_vm_leaves_no_trace(trigger):
    fed, cluster, retired = trigger()
    assert retired
    clusters = list(fed.clusters) + ([cluster] if cluster else [])
    for vm, host in retired:
        assert all(vm not in c.vms for c in clusters), vm
        assert all(m is not vm for m in fed.overlay.members.values()), vm
        for cloud in fed.clouds.values():
            assert vm not in cloud.instances, vm
            with pytest.raises(ValueError):
                cloud.meter.current_rate(vm.name)  # no open segment
        assert vm.host is None and vm not in host.vms, vm
        assert host.used_cores == sum(v.vcpus for v in host.vms)
        assert host.used_ram == sum(v.memory.size_bytes for v in host.vms)


def test_terminate_after_the_market_killed_the_vm_only_unlinks_it():
    tb = small_testbed()
    fed = tb.federation
    cluster = tb.sim.run(until=fed.create_virtual_cluster(tb.image_name, 3))
    vm = cluster.vms[-1]
    cloud = fed.cloud_of(vm)
    cloud.terminate(vm)  # the provider's own kill
    instances, billed = list(cloud.instances), cloud.compute_cost()
    assert fed.terminate(vm, cluster) == 0.0
    assert vm not in cluster.vms
    assert all(m is not vm for m in fed.overlay.members.values())
    assert cloud.instances == instances
    assert cloud.compute_cost() == billed


# -- job validation ------------------------------------------------------


def test_job_argument_validation():
    tb = small_testbed(n_clouds=1)
    with pytest.raises(ValueError):
        Job(tb.sim, "t", n_nodes=0, runtime=10.0)
    with pytest.raises(ValueError):
        Job(tb.sim, "t", n_nodes=2, runtime=-1.0)
    with pytest.raises(ValueError):
        Job(tb.sim, "t", n_nodes=2, runtime=10.0, min_nodes=3)
    with pytest.raises(ValueError):
        Job(tb.sim, "t", n_nodes=2, runtime=10.0, max_nodes=1)
