"""Tests for the spot-backed capacity subsystem: bidding, enrollment,
rescue / checkpoint-restart / requeue-with-progress reclamation
handling, fair-share preemption, EASY backfill, and the billing
properties the economics rest on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import Cloud, CloudError, SpotMarket, SpotState, make_image
from repro.controlplane import (
    ControlPlane,
    JobState,
    OnDemandClip,
    SchedulerConfig,
    SpotPolicy,
    eventlog_of,
    recover,
)
from repro.hypervisor import PhysicalHost, VMState
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Simulator
from repro.sky import MigratableSpotManager
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads.traces import SpotPriceProcess

from tests.test_properties_spot import ManualPrices


def spot_testbed(trace=None, grace=120.0, on_demand=0.10,
                 rescue_cloud=True, seed=7):
    """Two small clouds; cloud "a" runs a spot market over ``trace``
    (default: flat cheap price), cloud "b" is the on-demand refuge /
    rescue destination."""
    sites = [SiteSpec("a", n_hosts=2, cores_per_host=8,
                      on_demand_hourly=on_demand)]
    if rescue_cloud:
        sites.append(SiteSpec("b", n_hosts=2, cores_per_host=8,
                              on_demand_hourly=0.12))
    tb = sky_testbed(sites=sites, memory_pages=256, image_blocks=512,
                     seed=seed)
    times, prices = trace if trace is not None else (np.array([0.0]),
                                                    np.array([0.02]))
    market = SpotMarket(tb.sim, tb.clouds["a"],
                        SpotPriceProcess(tb.sim, np.array(times, dtype=float),
                                         np.array(prices, dtype=float)),
                        reclaim_grace=grace)
    return tb, market


SPIKE = (np.array([0.0, 300.0, 900.0]), np.array([0.02, 0.50, 0.02]))


def make_spot_plane(tb, market, policy, **kwargs):
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name,
                         spot_markets={"a": market}, spot_policy=policy,
                         **kwargs).start()
    plane.register_tenant("alice")
    return plane


# -- enrollment and savings ----------------------------------------------


def test_leases_get_spot_backed_and_savings_accrue():
    tb, market = spot_testbed()
    plane = make_spot_plane(tb, market, SpotPolicy())
    jobs = [plane.submit("alice", n_nodes=2, runtime=120.0)
            for _ in range(3)]
    tb.sim.run(until=plane.all_done(jobs))
    assert all(j.state is JobState.COMPLETED for j in jobs)
    summary = plane.summary()["spot"]
    assert summary["enrolled"] == 6
    assert summary["savings_total"] > 0
    assert summary["savings_by_tenant"]["alice"] == pytest.approx(
        summary["savings_total"])
    assert plane.metrics.series("spot.enrolled.alice").last() == 6
    assert plane.leases.leaked() == []


def test_no_enrollment_when_market_beats_on_demand_only_barely():
    # Spot at 0.095 against 0.10 on-demand: min_advantage 0.9 says the
    # bargain is too thin, so the lease stays on demand.
    tb, market = spot_testbed(trace=(np.array([0.0]), np.array([0.095])))
    plane = make_spot_plane(tb, market, SpotPolicy(min_advantage=0.9))
    job = plane.submit("alice", n_nodes=2, runtime=60.0)
    tb.sim.run(until=job.done)
    assert plane.spot.enrolled_count == 0
    assert market.instances == []


# -- the three reclamation outcomes --------------------------------------


def test_price_spike_rescues_vms_and_job_completes():
    """Deterministic e2e: the price spikes above the bid at t=300, both
    VMs live-migrate to the refuge cloud inside the grace window, and
    the job finishes with at least its pre-spike progress intact."""
    tb, market = spot_testbed(trace=SPIKE)
    plane = make_spot_plane(tb, market, SpotPolicy())
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=300.0)
    pre_spike = job.progress
    assert pre_spike > 0
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.progress >= pre_spike
    assert job.attempts == 1  # never requeued: the cluster moved
    assert plane.spot.outcomes == {"rescued": 2, "checkpointed": 0,
                                   "requeued": 0}
    # Exactly one terminal resolution per instance.
    assert sorted(e.vm_name for e in plane.spot.resolutions()) == sorted(
        i.vm.name for i in market.instances)
    assert all(i.state is SpotState.RESCUED for i in market.instances)
    assert plane.metrics.series("spot.rescued.alice").last() == 2
    assert plane.leases.leaked() == []


def test_spike_without_rescue_requeues_with_progress():
    tb, market = spot_testbed(trace=SPIKE, rescue_cloud=False)
    plane = make_spot_plane(tb, market, SpotPolicy(rescue=False))
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=300.0)
    pre_spike = job.progress
    tb.sim.run(until=425.0)  # past the kill at t=420
    # Requeued (and possibly already re-dispatched into provisioning).
    assert job.state in (JobState.QUEUED, JobState.PROVISIONING)
    assert job.progress >= pre_spike > 0  # credit survived the requeue
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.attempts == 2
    assert plane.spot.outcomes["requeued"] >= 1
    assert plane.spot.outcomes["rescued"] == 0
    # The sibling VM of the released lease resolved "closed", not a
    # second "requeued": one lease-level response per episode.
    outcomes = sorted(e.outcome for e in plane.spot.resolutions())
    assert outcomes == ["closed", "requeued"]
    assert plane.leases.leaked() == []


def test_spike_with_refuge_checkpoint_restores_into_lease():
    tb, market = spot_testbed(trace=SPIKE)
    policy = SpotPolicy(rescue=False, refuge="b", checkpoint_interval=60.0)
    plane = make_spot_plane(tb, market, policy)
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.attempts == 1  # restored in place, never requeued
    assert plane.spot.outcomes == {"rescued": 0, "checkpointed": 2,
                                   "requeued": 0}
    assert len(plane.spot.checkpoints.restores) == 2
    # The replacements ran at the refuge and were returned at teardown.
    assert all(r.new_vm.startswith("restored-")
               for r in plane.spot.checkpoints.restores)
    assert plane.metrics.series("spot.checkpointed.alice").last() == 2
    assert plane.leases.leaked() == []


def test_failed_checkpoint_restore_is_timed_as_a_failure():
    tb, market = spot_testbed(trace=SPIKE)
    policy = SpotPolicy(rescue=False, refuge="b", checkpoint_interval=60.0)
    plane = make_spot_plane(tb, market, policy)

    def failing_restore(inst, image_name):
        def attempt():
            yield tb.sim.timeout(5.0)
            raise CloudError("refuge out of capacity")
        return tb.sim.process(attempt())

    plane.spot.checkpoints.restore = failing_restore
    job = plane.submit("alice", n_nodes=1, runtime=600.0)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert plane.spot.outcomes["requeued"] == 1
    # The duration of the failed restore is a failure latency, never a
    # successful restore time.
    assert plane.metrics.get("spot.restore_time") is None
    assert plane.metrics.series("spot.restore_time.failed").values() == [5.0]
    assert plane.leases.leaked() == []


def test_transient_spike_within_grace_survives_unharmed():
    times = np.array([0.0, 300.0, 330.0])
    prices = np.array([0.02, 0.50, 0.02])  # recedes inside the grace
    tb, market = spot_testbed(trace=(times, prices))
    plane = make_spot_plane(tb, market, SpotPolicy(rescue=False))
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert job.attempts == 1
    assert plane.spot.outcomes == {"rescued": 0, "checkpointed": 0,
                                   "requeued": 0}
    assert [e.outcome for e in plane.spot.events] == ["survived", "survived"]
    assert plane.leases.leaked() == []


# -- fair-share preemption ------------------------------------------------


def test_preemption_rescues_a_starving_tenant():
    """Regression: a spot-backed hog must not starve a second tenant —
    the scheduler reclaims the hog's lease (requeue with progress) once
    the blocked head waits past starvation_patience."""
    tb, market = spot_testbed(rescue_cloud=False)
    policy = SpotPolicy(rescue=False, starvation_patience=300.0)
    plane = make_spot_plane(tb, market, policy)
    plane.register_tenant("meek")
    big = plane.submit("alice", n_nodes=16, runtime=5000.0)
    tb.sim.run(until=60.0)
    small = plane.submit("meek", n_nodes=16, runtime=100.0)
    tb.sim.run(until=small.done)
    assert small.state is JobState.COMPLETED
    assert plane.scheduler.preemptions == 1
    assert plane.spot.preemptions == 1
    assert big.progress > 0  # the hog kept its completed node-seconds
    tb.sim.run(until=big.done)
    assert big.state is JobState.COMPLETED
    assert big.attempts == 2
    assert plane.metrics.series("spot.preempted.alice").last() == 1
    assert plane.leases.leaked() == []


def test_no_preemption_when_disabled_or_not_starving():
    tb, market = spot_testbed(rescue_cloud=False)
    policy = SpotPolicy(rescue=False, preemption=False)
    plane = make_spot_plane(tb, market, policy)
    plane.register_tenant("meek")
    big = plane.submit("alice", n_nodes=16, runtime=2000.0)
    tb.sim.run(until=60.0)
    small = plane.submit("meek", n_nodes=16, runtime=100.0)
    tb.sim.run(until=small.done)
    assert plane.scheduler.preemptions == 0
    assert small.started_at >= big.finished_at - 1e-9


def test_preemption_never_touches_on_demand_leases():
    # No spot backing for the hog's lease (market price not a bargain)
    # -> nothing is preemptible and the meek tenant simply waits.
    tb, market = spot_testbed(trace=(np.array([0.0]), np.array([0.099])),
                              rescue_cloud=False)
    policy = SpotPolicy(rescue=False, starvation_patience=120.0)
    plane = make_spot_plane(tb, market, policy)
    plane.register_tenant("meek")
    big = plane.submit("alice", n_nodes=16, runtime=1000.0)
    tb.sim.run(until=60.0)
    small = plane.submit("meek", n_nodes=16, runtime=50.0)
    tb.sim.run(until=small.done)
    assert plane.scheduler.preemptions == 0
    assert big.attempts == 1


# -- EASY backfill --------------------------------------------------------


def test_backfill_runs_small_job_past_blocked_head():
    tb = sky_testbed([SiteSpec("a", n_hosts=1, cores_per_host=8,
                               on_demand_hourly=0.10)],
                     memory_pages=256, image_blocks=512, seed=7)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice")
    filler = plane.submit("alice", n_nodes=6, runtime=600.0, priority=9)
    tb.sim.run(until=30.0)
    head = plane.submit("alice", n_nodes=8, runtime=100.0, priority=5)
    small = plane.submit("alice", n_nodes=2, runtime=50.0, priority=0)
    tb.sim.run(until=plane.all_done([filler, head, small]))
    assert plane.scheduler.backfills >= 1
    assert small.started_at < head.started_at  # jumped the blocked head
    assert plane.leases.leaked() == []


def test_backfill_never_delays_the_heads_reservation():
    tb = sky_testbed([SiteSpec("a", n_hosts=1, cores_per_host=8,
                               on_demand_hourly=0.10)],
                     memory_pages=256, image_blocks=512, seed=7)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice")
    filler = plane.submit("alice", n_nodes=6, runtime=600.0, priority=9)
    tb.sim.run(until=30.0)
    head = plane.submit("alice", n_nodes=8, runtime=100.0, priority=5)
    # Runs far past the head's shadow time on nodes the head needs, so
    # EASY must hold it back.
    long_small = plane.submit("alice", n_nodes=2, runtime=5000.0,
                              priority=0)
    tb.sim.run(until=plane.all_done([filler, head]))
    assert plane.scheduler.backfills == 0
    assert (long_small.started_at is None
            or long_small.started_at >= head.started_at)


def test_backfill_can_be_disabled():
    tb = sky_testbed([SiteSpec("a", n_hosts=1, cores_per_host=8,
                               on_demand_hourly=0.10)],
                     memory_pages=256, image_blocks=512, seed=7)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name,
                         config=SchedulerConfig(backfill=False)).start()
    plane.register_tenant("alice")
    filler = plane.submit("alice", n_nodes=6, runtime=600.0, priority=9)
    tb.sim.run(until=30.0)
    head = plane.submit("alice", n_nodes=8, runtime=100.0, priority=5)
    small = plane.submit("alice", n_nodes=2, runtime=50.0, priority=0)
    tb.sim.run(until=plane.all_done([filler, head, small]))
    assert plane.scheduler.backfills == 0
    assert small.started_at >= head.started_at


# -- progress-preserving requeue (queue layer) ---------------------------


def test_resubmit_preserves_progress_by_default():
    tb = sky_testbed([SiteSpec("a", n_hosts=1, cores_per_host=4)],
                     memory_pages=256, image_blocks=512, seed=7)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=100.0)
    tb.sim.run(until=60.0)
    assert job.state is JobState.RUNNING
    done_before = job.progress
    assert done_before > 0
    lease = next(l for l in plane.leases.active_leases() if l.job is job)
    plane.scheduler.requeue(lease, reason="test")
    assert job.state is JobState.QUEUED
    assert job.progress == done_before
    assert job.work_remaining == job.total_work - done_before
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    # Progress credit means the second leg only ran the remainder.
    assert job.finished_at < 60.0 + 100.0


def test_resubmit_can_drop_progress():
    sim = Simulator()
    tb = sky_testbed([SiteSpec("a", n_hosts=1, cores_per_host=4)],
                     memory_pages=256, image_blocks=512, seed=7)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=1, runtime=100.0)
    tb.sim.run(until=50.0)
    job.work_remaining = 30.0
    job.state = JobState.RUNNING
    plane.queue._queues["alice"].clear()
    plane.queue.resubmit(job, keep_progress=False)
    assert job.work_remaining == job.total_work
    assert job.progress == 0.0


def test_job_progress_accessors():
    sim = Simulator()
    from repro.controlplane import Job
    job = Job(sim, "alice", n_nodes=4, runtime=100.0)
    assert job.total_work == 400.0
    assert job.progress == 0.0
    assert job.progress_fraction == 0.0
    job.work_remaining = 100.0
    assert job.progress == 300.0
    assert job.progress_fraction == pytest.approx(0.75)


# -- bidding strategies ---------------------------------------------------


class _FakeMarket:
    def __init__(self, sim, price):
        self.sim = sim
        self.current_price = price


class _FakeCloud:
    def __init__(self, od):
        self.pricing = type("Pr", (), {"on_demand_hourly": od})()


def test_on_demand_clip_bids_fraction_of_on_demand():
    sim = Simulator()
    market = _FakeMarket(sim, 0.02)
    assert OnDemandClip(0.95).bid(market, _FakeCloud(0.10), None) \
        == pytest.approx(0.095)
    # Declines when the clip is under the current price.
    market.current_price = 0.099
    assert OnDemandClip(0.95).bid(market, _FakeCloud(0.10), None) is None
    with pytest.raises(ValueError):
        OnDemandClip(0.0)


def test_plane_uses_configured_strategy():
    tb, market = spot_testbed()
    policy = SpotPolicy(strategy=OnDemandClip(0.5))
    plane = make_spot_plane(tb, market, policy)
    job = plane.submit("alice", n_nodes=1, runtime=30.0)
    tb.sim.run(until=job.done)
    assert all(i.bid == pytest.approx(0.05) for i in market.instances)


# -- billing properties (the satellite bugfixes) --------------------------


def _one_cloud_market(price_points, grace=60.0):
    sim = Simulator()
    topo = Topology()
    site = topo.add_site(Site("cloud-a", lan_bandwidth=gbit_per_s(10)))
    sched = FlowScheduler(sim, topo)
    hosts = [PhysicalHost(f"h{i}", "cloud-a", cores=16) for i in range(2)]
    cloud = Cloud(sim, sched, site, hosts, boot_delay=1.0)
    rng = np.random.default_rng(0)
    cloud.repository.register(make_image("debian", rng, n_blocks=256,
                                         default_memory_pages=64))
    times = np.array([p[0] for p in price_points])
    prices = np.array([p[1] for p in price_points])
    market = SpotMarket(sim, cloud, SpotPriceProcess(sim, times, prices),
                        reclaim_grace=grace)
    return sim, cloud, market


def test_repeated_price_crossings_resolve_exactly_once():
    """Regression: several price points above the bid inside one grace
    window used to spawn duplicate reclamation episodes, double-firing
    ``reclaim_event`` (a SimulationError) and double-invoking the
    handler.  Now one episode runs per crossing streak."""
    points = [(0.0, 0.03), (10.0, 0.20), (20.0, 0.25), (30.0, 0.30),
              (200.0, 0.30)]
    sim, cloud, market = _one_cloud_market(points, grace=60.0)
    resolutions = []
    market.on_resolution = lambda inst, outcome: resolutions.append(outcome)
    handler_calls = []

    def handler(inst):
        handler_calls.append(sim.now)
        def proc():
            return False
            yield
        return sim.process(proc())

    market.reclaim_handler = handler
    req = market.request_spot("debian", bid=0.10)
    sim.run(until=5.0)
    inst = req.value
    sim.run(until=400.0)  # would raise on the double-succeed before
    assert inst.state is SpotState.RECLAIMED
    assert inst.reclaim_event.value == "reclaimed"
    assert handler_calls == [10.0]
    assert resolutions == ["reclaimed"]


def test_enrolled_instance_billed_at_market_rate_capped_by_bid():
    # The excursion above the bid recedes inside the grace window, so
    # the instance survives and we see the bid-capped segment.
    points = [(0.0, 0.04), (100.0, 0.08), (140.0, 0.02)]
    sim, cloud, market = _one_cloud_market(points)
    boot = cloud.run_instances("debian", 1)
    sim.run(until=10.0)
    vm = boot.value[0]
    inst = market.enroll(vm, bid=0.06)
    sim.run(until=300.0)
    market.retire(inst)
    sim.run(until=350.0)
    cloud.terminate(vm)
    segs = cloud.meter.segments(vm.name)
    rates = [cost / ((stop - start) / 3600.0)
             for start, stop, cost in segs if stop > start]
    # on-demand to t=10, spot 0.04, then capped at the 0.06 bid (price
    # 0.08), back to 0.02, and on-demand again after retirement.
    assert rates == pytest.approx([cloud.pricing.on_demand_hourly,
                                   0.04, 0.06, 0.02,
                                   cloud.pricing.on_demand_hourly])


def test_retire_resolves_pending_episode_as_closed():
    points = [(0.0, 0.03), (50.0, 0.50), (500.0, 0.50)]
    sim, cloud, market = _one_cloud_market(points, grace=120.0)
    outcomes = []
    market.on_resolution = lambda inst, o: outcomes.append(o)
    boot = cloud.run_instances("debian", 1)
    sim.run(until=10.0)
    vm = boot.value[0]
    inst = market.enroll(vm, bid=0.06)
    sim.run(until=60.0)  # mid-grace
    assert inst.reclaiming
    market.retire(inst)
    sim.run(until=300.0)
    assert outcomes == ["closed"]
    assert not inst.reclaim_event.triggered
    assert vm in cloud.instances  # retire never touches the VM


def test_rescued_instance_bills_at_destination_cloud():
    """Regression: after a rescue migration the source must stop billing
    and the destination must bill at *its* on-demand price."""
    tb, market = spot_testbed(trace=SPIKE)
    plane = make_spot_plane(tb, market, SpotPolicy())
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=500.0)  # spike at 300 + grace 120 < 500
    assert plane.spot.outcomes["rescued"] == 2
    src, dst = tb.clouds["a"], tb.clouds["b"]
    for inst in market.instances:
        assert inst.vm not in src.instances
        assert inst.vm in dst.instances
        assert dst.meter.current_rate(inst.vm.name) == pytest.approx(
            dst.pricing.on_demand_hourly)
        with pytest.raises(ValueError):
            src.meter.current_rate(inst.vm.name)
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED


def test_preemption_in_the_instant_of_a_spike_skips_the_rescue():
    """Regression: a lease preempted in the same instant as the price
    crossing retires its enrolments before their episodes start.  The
    market must not hand those dead instances to the rescuer (with
    ``rescue=True`` it read the terminated VM's site and raised
    ``RuntimeError: ... not placed on any host``); the episodes still
    run out their grace window and resolve as closed."""
    tb, market = spot_testbed()
    prices = ManualPrices(0.02)
    market = SpotMarket(tb.sim, tb.clouds["a"], prices, reclaim_grace=120.0)
    plane = make_spot_plane(tb, market, SpotPolicy(rescue=True))
    job = plane.submit("alice", n_nodes=2, runtime=600.0)
    tb.sim.run(until=60.0)
    (lease,) = plane.spot.preemptible_leases()
    insts = market.live_instances()
    assert len(insts) == 2
    prices.set(0.5)  # opens two episodes; neither has started yet
    plane.spot.preempt(lease)
    tb.sim.run(until=300.0)
    assert all(i.state is SpotState.CLOSED for i in insts)
    assert market._reclaiming == 0
    closed = [e for e in plane.spot.events if e.outcome == "closed"]
    assert sorted(e.vm_name for e in closed) == sorted(
        i.vm.name for i in insts)
    assert all(e.time == 60.0 + 120.0 for e in closed)
    assert plane.spot.outcomes == {"rescued": 0, "checkpointed": 0,
                                   "requeued": 2}
    assert plane.metrics.counter("spot.reclaim_warnings").value == 0
    tb.sim.run(until=job.done)
    assert job.state is JobState.COMPLETED
    assert plane.leases.leaked() == []


def test_close_of_an_instance_rescued_inside_the_grace_window():
    """Regression: a VM rescued to another cloud keeps its instance
    ``RUNNING`` until the grace window ends.  Closing it then used to
    terminate the VM at the source cloud, which no longer tracks it,
    and raise ``CloudError``; now it ends the spot terms and leaves the
    VM running at the destination."""
    tb, market = spot_testbed(trace=(np.array([0.0, 300.0]),
                                     np.array([0.02, 0.50])),
                              grace=200.0)
    MigratableSpotManager(tb.federation).attach(market)
    outcomes = []
    market.on_resolution = lambda inst, o: outcomes.append(o)
    inst = tb.sim.run(until=market.request_spot(tb.image_name, bid=0.05))
    src, dst = tb.clouds["a"], tb.clouds["b"]
    tb.sim.run(until=480.0)  # rescued; the grace runs until 500
    assert inst.alive and inst.reclaiming
    assert inst.vm not in src.instances and inst.vm in dst.instances
    market.close(inst)
    assert inst.state is SpotState.CLOSED
    assert inst.ended_at == 480.0
    assert market.live_instances() == []
    assert inst.vm.state is VMState.RUNNING
    assert inst.vm in dst.instances
    tb.sim.run(until=600.0)
    assert outcomes == ["closed"]
    assert not inst.reclaim_event.triggered
    # Billing left the source at the hand-off and runs on at the
    # destination's on-demand price.
    with pytest.raises(ValueError):
        src.meter.current_rate(inst.vm.name)
    assert dst.meter.current_rate(inst.vm.name) == pytest.approx(
        dst.pricing.on_demand_hourly)


# -- the spend property ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(prices=st.lists(st.floats(min_value=0.005, max_value=0.5),
                       min_size=2, max_size=12))
def test_spot_spend_never_exceeds_on_demand_for_same_hours(prices):
    """For any price trace, every billed segment of an enrolled
    instance costs at most what the same wall-clock span would have on
    demand (and at most the bid) — so spot spend <= on-demand spend for
    the same trace."""
    points = [(0.0, 0.01)] + [(30.0 * (i + 1), p)
                              for i, p in enumerate(prices)]
    sim, cloud, market = _one_cloud_market(points, grace=45.0)
    od = cloud.pricing.on_demand_hourly
    boot = cloud.run_instances("debian", 1)
    sim.run(until=5.0)
    vm = boot.value[0]
    enrolled_at = sim.now
    bid = 0.95 * od
    market.enroll(vm, bid=bid)
    sim.run(until=30.0 * (len(prices) + 2))
    if vm in cloud.instances:
        cloud.terminate(vm)
    spot_cost = 0.0
    od_cost = 0.0
    for start, stop, cost in cloud.meter.segments(vm.name):
        if start < enrolled_at:
            continue
        hours = (stop - start) / 3600.0
        assert cost <= hours * min(bid, od) + 1e-12
        spot_cost += cost
        od_cost += hours * od
    assert spot_cost <= od_cost + 1e-12


# -- determinism ----------------------------------------------------------


def test_spot_backed_run_is_deterministic():
    def run():
        tb, market = spot_testbed(trace=SPIKE)
        plane = make_spot_plane(tb, market, SpotPolicy())
        jobs = [plane.submit("alice", n_nodes=2, runtime=300.0)
                for _ in range(4)]
        tb.sim.run(until=plane.all_done(jobs))
        return ([(j.finished_at, j.attempts) for j in jobs],
                plane.spot.outcomes,
                plane.spot.savings_total)

    assert run() == run()


# -- crash recovery ---------------------------------------------------------


def test_recovery_retires_stranded_enrollments_once():
    """A crash kills the manager that owned the backings; ``recover``
    hands each still-live enrollment back to on-demand terms exactly
    once and commits it as closed."""
    # The price dips after the crash: an instance still on spot terms
    # would be re-rated to 0.01.
    trace = (np.array([0.0, 600.0]), np.array([0.02, 0.01]))
    tb, market = spot_testbed(trace=trace)
    plane = make_spot_plane(tb, market, SpotPolicy())
    plane.submit("alice", n_nodes=2, runtime=2000.0)
    plane.submit("alice", n_nodes=1, runtime=2000.0)
    tb.sim.run(until=100.0)
    stranded = [i for i in market.instances if i.alive]
    assert len(stranded) == 3
    log = plane.crash()

    retired = []
    retire = market.retire

    def counting_retire(inst):
        retired.append(inst)
        retire(inst)

    market.retire = counting_retire
    crashed_at = tb.sim.now
    recover(tb.sim, tb.federation, tb.image_name, log,
            spot_markets={"a": market}, spot_policy=SpotPolicy())
    assert sorted(id(i) for i in retired) == sorted(id(i) for i in stranded)
    assert not any(i.alive for i in market.instances)

    meter = tb.clouds["a"].meter
    od = tb.clouds["a"].pricing.on_demand_hourly
    tb.sim.run(until=900.0)  # past the dip
    for inst in stranded:
        assert inst.state is SpotState.CLOSED
        assert meter.current_rate(inst.vm.name) == od
        # The spot segment closed at the crash; nothing billed since.
        assert meter.segments(inst.vm.name)[-1][1] == crashed_at

    closed = [e for e in eventlog_of(tb.sim)
              if e.kind == "spot" and e.cause == "recovery"]
    assert sorted(e.entity for e in closed) == sorted(
        i.vm.name for i in stranded)
    assert all(e.frm == "enrolled" and e.to == "closed" for e in closed)
