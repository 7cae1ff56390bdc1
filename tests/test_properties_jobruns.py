"""Shared job-run ticks against the per-job reference scheduler.

The fair-share scheduler ticks the pure ticks of in-phase job runs in
one kernel entry (through :meth:`repro.simkernel.Simulator.tick_in`).
Random plane worlds run once on the library scheduler and once on
:class:`tests.jobrun_oracle.ReferenceScheduler`, whose every job wakes
its own runner process per tick.  The worlds mix runtimes that are
exact multiples of the scheduling interval, lease terms shorter than
the runtimes (renewals), malleable jobs that grow and shrink, VM
failures healed in place, spot reclamations and fair-share preemption
that interrupt runs, and a control-plane crash mid-run.  The event log,
every job's state and times, the clock and the kernel's sequence number
must agree on both the heap and the calendar queue.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import SpotMarket
from repro.controlplane import ControlPlane, SchedulerConfig, SpotPolicy
from repro.controlplane import eventlog_of
from repro.controlplane.health import FailureInjector
from repro.controlplane.jobs import Job
from repro.controlplane.lease import Lease
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import SpotPriceProcess

from tests.jobrun_oracle import ReferenceScheduler

INTERVAL = 10.0
HORIZON = 900.0
#: Spot prices move every PRICE_TICK seconds; a spike crosses every bid.
PRICE_TICK = 20.0

jobs = st.lists(st.fixed_dictionaries({
    "tenant": st.sampled_from(["a", "b"]),
    "n": st.integers(1, 3),
    "runtime": st.one_of(
        st.integers(1, 15).map(lambda k: k * INTERVAL),
        st.floats(3.0, 150.0)),
    "elastic": st.sampled_from([None, None, "shrink", "grow"]),
    "at": st.sampled_from([0.0, 0.0, 4.0, 20.0, 37.5, 130.0]),
}), min_size=1, max_size=10)

worlds = st.fixed_dictionaries({
    "jobs": jobs,
    "hosts": st.integers(1, 2),
    "lease_term": st.sampled_from([25.0, 45.0, 600.0]),
    "fail_rate": st.sampled_from([0.0, 1 / 400, 1 / 120]),
    "spikes": st.lists(st.integers(1, 40), max_size=5),
    "weights": st.sampled_from([(1.0, 1.0), (1.0, 4.0)]),
    "quotas": st.sampled_from([(None, None), (3, None), (2, 4)]),
    "patience": st.sampled_from([0.0, 40.0, 10_000.0]),
    "crash_at": st.one_of(st.none(), st.floats(15.0, 400.0)),
    "seed": st.integers(0, 3),
})

#: A fixed world that takes every path the random ones may take.
EVERY_PATH = {
    "jobs": [
        {"tenant": "a", "n": 2, "runtime": 120.0, "elastic": "grow",
         "at": 0.0},
        {"tenant": "a", "n": 3, "runtime": 90.0, "elastic": None,
         "at": 0.0},
        {"tenant": "b", "n": 2, "runtime": 100.0, "elastic": "shrink",
         "at": 4.0},
        {"tenant": "a", "n": 1, "runtime": 150.0, "elastic": None,
         "at": 0.0},
        {"tenant": "b", "n": 3, "runtime": 47.25, "elastic": None,
         "at": 20.0},
        {"tenant": "b", "n": 1, "runtime": 30.0, "elastic": None,
         "at": 130.0},
        {"tenant": "a", "n": 2, "runtime": 60.0, "elastic": None,
         "at": 37.5},
        {"tenant": "b", "n": 2, "runtime": 140.0, "elastic": None,
         "at": 0.0},
    ],
    "hosts": 1,
    "lease_term": 25.0,
    "fail_rate": 1 / 120,
    "spikes": [2, 9, 22],
    "weights": (1.0, 4.0),
    "quotas": (None, None),
    "patience": 0.0,
    "crash_at": 200.0,
    "seed": 1,
}


def run_world(world, queue=None, scheduler=None):
    """Build and run ``world``, its plane's scheduler switched to class
    ``scheduler`` when given; return what must not change."""
    saved = Job._ids, Lease._ids
    # Ids number from 1 in both runs of a world.
    Job._ids = itertools.count(1)
    Lease._ids = itertools.count(1)
    try:
        return _run(world, queue, scheduler)
    finally:
        Job._ids, Lease._ids = saved


def _run(world, queue, scheduler):
    """``run_world``'s outcome, plus the plane under key ``plane``."""
    tb = sky_testbed(
        sites=[SiteSpec(name, n_hosts=world["hosts"], cores_per_host=4,
                        on_demand_hourly=0.10 + 0.01 * k)
               for k, name in enumerate(("x", "y"))],
        memory_pages=64, image_blocks=128, seed=world["seed"],
        queue=queue)
    sim = tb.sim
    times = np.arange(0.0, HORIZON + PRICE_TICK, PRICE_TICK)
    markets = {}
    for k, (name, cloud) in enumerate(sorted(tb.clouds.items())):
        prices = np.full(len(times), 0.03)
        for spike in world["spikes"]:
            prices[(spike + 3 * k) % len(times)] = 0.5
        markets[name] = SpotMarket(sim, cloud,
                                   SpotPriceProcess(sim, times, prices),
                                   reclaim_grace=10.0)
    plane = ControlPlane(
        sim, tb.federation, tb.image_name,
        config=SchedulerConfig(interval=INTERVAL,
                               lease_term=world["lease_term"],
                               max_attempts=4),
        spot_markets=markets,
        spot_policy=SpotPolicy(rescue=False,
                               starvation_patience=world["patience"]),
        health_interval=15.0)
    if scheduler is not None:
        plane.scheduler.__class__ = scheduler
    plane.start()
    for name, weight, quota in zip(("a", "b"), world["weights"],
                                   world["quotas"]):
        plane.register_tenant(name, weight=weight, max_nodes=quota)
    submitted = []

    def submit(spec, i):
        n = spec["n"]
        kwargs = {}
        if spec["elastic"] == "shrink":
            n += 1
            kwargs["min_nodes"] = 1
        elif spec["elastic"] == "grow":
            kwargs["max_nodes"] = n + 2
        submitted.append(plane.submit(spec["tenant"], n_nodes=n,
                                      runtime=spec["runtime"],
                                      name=f"j{i}", **kwargs))

    for i, spec in enumerate(world["jobs"]):
        if spec["at"] == 0.0:
            submit(spec, i)
        else:
            sim.call_in(spec["at"],
                        lambda _ev, spec=spec, i=i: submit(spec, i))
    if world["fail_rate"]:
        FailureInjector(sim, plane.leases,
                        np.random.default_rng(world["seed"]),
                        rate=world["fail_rate"], tick=20.0,
                        spare_masters=True)
    if world["crash_at"] is not None:
        sim.run(until=world["crash_at"])
        plane.crash()
    sim.run(until=HORIZON)
    return {
        "log": eventlog_of(sim).to_jsonl(),
        "jobs": [(j.name, j.state.value, j.attempts, j.started_at,
                  j.finished_at, j.work_remaining) for j in submitted],
        "seq": sim._seq,
        "now": sim.now,
        "plane": plane,
    }


def assert_matches_reference(world):
    for queue in (None, "calendar"):
        got = run_world(world, queue)
        want = run_world(world, queue, ReferenceScheduler)
        del got["plane"], want["plane"]
        assert got["seq"] == want["seq"], queue
        assert got["jobs"] == want["jobs"], queue
        assert got["log"] == want["log"], queue
        assert got == want


@settings(max_examples=50, deadline=None)
@given(world=worlds)
def test_job_runs_match_the_per_job_reference(world):
    assert_matches_reference(world)


def test_a_world_taking_every_path_matches_the_reference():
    """The fixed world renews leases, grows and shrinks malleable jobs,
    heals failed VMs in place, has spot leases reclaimed and preempted,
    and completes every job; with a crash it also stops mid-run."""
    world = dict(EVERY_PATH, crash_at=None)
    run = run_world(world)
    scheduler = run["plane"].scheduler
    assert scheduler.grows and scheduler.shrinks and scheduler.preemptions
    for fact in ('"cause": "renew"', '"to": "replaced"',
                 '"cause": "spot-reclaimed"', '"cause": "fair-share"'):
        assert fact in run["log"], fact
    assert all(job[1] == "completed" for job in run["jobs"])
    crashed = run_world(EVERY_PATH)
    assert "running" in [job[1] for job in crashed["jobs"]]
    assert_matches_reference(world)
    assert_matches_reference(EVERY_PATH)


@pytest.mark.parametrize("queue", [None, "calendar"])
def test_in_phase_runs_share_one_kernel_entry_per_tick(queue):
    """Ten jobs started together tick in phase: 200 tick entries on the
    reference.  Their first ticks drew apart, so they run alone; from
    the second on the ten share one kernel entry per instant."""
    world = dict(EVERY_PATH, fail_rate=0.0, spikes=[], crash_at=None,
                 patience=10_000.0, hosts=2, lease_term=600.0,
                 jobs=[{"tenant": "ab"[i % 2], "n": 1, "runtime": 200.0,
                        "elastic": None, "at": 0.0} for i in range(10)])
    events = [run_world(world, queue, scheduler)["plane"].sim._n_events
              for scheduler in (None, ReferenceScheduler)]
    assert events[1] - events[0] == 9 * 18
