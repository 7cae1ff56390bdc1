"""Provisioning against its process-per-layer reference.

Random plane worlds run once on the library and once on
:mod:`tests.provision_oracle`, whose leases provision through a runner,
a cluster-creation process, one batch process per cloud and one deploy
process per batch (plus a chain-deploy process per cold cache).  The
worlds mix grants that span clouds, cold and warm image caches,
malleable jobs that grow and shrink, VM failures healed in place, spot
reclamations and a control-plane crash, often while leases are still
provisioning, after which a recovered plane's reconciler heals what the
crash left behind.  The event log, the job rows, every cloud's billing
segments, the instances still running and the clock must agree on both
the heap and the calendar queue; the kernel's sequence number may not.
"""

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import SpotMarket
from repro.controlplane import ControlPlane, SchedulerConfig, SpotPolicy
from repro.controlplane import eventlog_of
from repro.controlplane.health import FailureInjector
from repro.controlplane.jobs import Job
from repro.controlplane.lease import Lease
from repro.controlplane.recovery import recover
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import SpotPriceProcess

from tests import provision_oracle

INTERVAL = 10.0
HORIZON = 700.0
PRICE_TICK = 20.0
SITES = ("x", "y", "z")

jobs = st.lists(st.fixed_dictionaries({
    "tenant": st.sampled_from(["a", "b"]),
    "n": st.integers(1, 7),
    "runtime": st.one_of(
        st.integers(1, 12).map(lambda k: k * INTERVAL),
        st.floats(3.0, 150.0)),
    "elastic": st.sampled_from([None, None, "shrink", "grow"]),
    "at": st.sampled_from([0.0, 0.0, 4.0, 20.0, 37.5, 130.0]),
}), min_size=1, max_size=10)

worlds = st.fixed_dictionaries({
    "jobs": jobs,
    "clouds": st.integers(2, 3),
    "hosts": st.integers(1, 2),
    # Host indices (per cloud) whose image cache starts warm.
    "warm": st.lists(st.integers(0, 5), max_size=4),
    "lease_term": st.sampled_from([25.0, 45.0, 600.0]),
    "fail_rate": st.sampled_from([0.0, 1 / 400, 1 / 120]),
    "spikes": st.lists(st.integers(1, 30), max_size=4),
    "crash_at": st.one_of(
        st.none(),
        # Mid-provision: grants at t=0 boot until about t=10.
        st.sampled_from([0.5, 5.0, 9.0, 24.0]),
        st.floats(15.0, 300.0)),
    "recover": st.booleans(),
    "seed": st.integers(0, 3),
})

#: A fixed world that takes every path the random ones may take.
EVERY_PATH = {
    "jobs": [
        {"tenant": "a", "n": 6, "runtime": 120.0, "elastic": "grow",
         "at": 0.0},
        {"tenant": "b", "n": 3, "runtime": 90.0, "elastic": None,
         "at": 0.0},
        {"tenant": "b", "n": 2, "runtime": 100.0, "elastic": "shrink",
         "at": 4.0},
        {"tenant": "a", "n": 7, "runtime": 47.25, "elastic": None,
         "at": 20.0},
        {"tenant": "b", "n": 1, "runtime": 30.0, "elastic": "grow",
         "at": 130.0},
        {"tenant": "a", "n": 2, "runtime": 60.0, "elastic": None,
         "at": 37.5},
    ],
    "clouds": 3,
    "hosts": 1,
    "warm": [0],
    "lease_term": 25.0,
    "fail_rate": 1 / 120,
    "spikes": [2, 9, 22],
    "crash_at": 5.0,
    "recover": True,
    "seed": 1,
}


def run_world(world, queue=None, oracle=False):
    """Build and run ``world`` (on the process-per-layer reference when
    ``oracle``); return what must not change."""
    saved = Job._ids, Lease._ids
    Job._ids = itertools.count(1)
    Lease._ids = itertools.count(1)
    try:
        return _run(world, queue, oracle)
    finally:
        Job._ids, Lease._ids = saved


def _plane(tb, markets, world, **kwargs):
    return dict(
        config=SchedulerConfig(interval=INTERVAL,
                               lease_term=world["lease_term"],
                               max_attempts=4),
        spot_markets=markets,
        spot_policy=SpotPolicy(rescue=False, starvation_patience=40.0),
        health_interval=15.0, **kwargs)


def _run(world, queue, oracle):
    tb = sky_testbed(
        sites=[SiteSpec(name, n_hosts=world["hosts"], cores_per_host=4,
                        on_demand_hourly=0.10 + 0.01 * k)
               for k, name in enumerate(SITES[:world["clouds"]])],
        memory_pages=64, image_blocks=128, seed=world["seed"],
        queue=queue)
    sim = tb.sim
    for cloud in tb.clouds.values():
        for i in world["warm"]:
            if i < len(cloud.hosts):
                cloud.cache.put(cloud.hosts[i], tb.image_name)
    times = np.arange(0.0, HORIZON + PRICE_TICK, PRICE_TICK)
    markets = {}
    for k, (name, cloud) in enumerate(sorted(tb.clouds.items())):
        prices = np.full(len(times), 0.03)
        for spike in world["spikes"]:
            prices[(spike + 3 * k) % len(times)] = 0.5
        markets[name] = SpotMarket(sim, cloud,
                                   SpotPriceProcess(sim, times, prices),
                                   reclaim_grace=10.0)
    plane = ControlPlane(sim, tb.federation, tb.image_name,
                         **_plane(tb, markets, world))
    if oracle:
        provision_oracle.install(plane)
    plane.start()
    for name in ("a", "b"):
        plane.register_tenant(name)

    def submit(spec, i):
        n = spec["n"]
        kwargs = {}
        if spec["elastic"] == "shrink":
            n += 1
            kwargs["min_nodes"] = 1
        elif spec["elastic"] == "grow":
            kwargs["max_nodes"] = n + 2
        if plane.scheduler._running:
            plane.submit(spec["tenant"], n_nodes=n, runtime=spec["runtime"],
                         name=f"j{i}", **kwargs)

    for i, spec in enumerate(world["jobs"]):
        if spec["at"] == 0.0:
            submit(spec, i)
        else:
            sim.call_in(spec["at"],
                        lambda _ev, spec=spec, i=i: submit(spec, i))
    injector = None
    if world["fail_rate"]:
        injector = FailureInjector(sim, plane.leases,
                        np.random.default_rng(world["seed"]),
                        rate=world["fail_rate"], tick=20.0,
                        spare_masters=True)
    if world["crash_at"] is not None:
        sim.run(until=world["crash_at"])
        log = plane.crash()
        if world["recover"]:
            plane = recover(sim, tb.federation, tb.image_name, log,
                            reconcile_interval=30.0,
                            **_plane(tb, markets, world))
            if oracle:
                provision_oracle.install(plane)
            plane.start()
            if injector is not None:
                injector.leases = plane.leases
    sim.run(until=HORIZON)
    return {
        "log": eventlog_of(sim).to_jsonl(),
        "jobs": [(j.name, j.state.value, j.attempts, j.started_at,
                  j.finished_at, j.work_remaining)
                 for j in plane.queue.jobs.values()],
        "segments": {name: cloud.meter._closed
                     for name, cloud in sorted(tb.clouds.items())},
        "instances": {name: [vm.name for vm in cloud.instances]
                      for name, cloud in sorted(tb.clouds.items())},
        "overlay": sorted(vm.name
                          for vm in tb.federation.overlay.members.values()),
        "now": sim.now,
        "plane": plane,
    }


def assert_matches_reference(world):
    for queue in (None, "calendar"):
        got = run_world(world, queue)
        want = run_world(world, queue, oracle=True)
        del got["plane"], want["plane"]
        assert got["jobs"] == want["jobs"], queue
        assert got["log"] == want["log"], queue
        assert got == want, queue


@settings(max_examples=40, deadline=None)
@given(world=worlds)
def test_provisioning_matches_the_process_per_layer_reference(world):
    assert_matches_reference(world)


def test_a_world_taking_every_path_matches_the_reference():
    """The fixed world spans clouds from cold and warm caches, grows
    and shrinks malleable jobs, heals failed VMs, has spot leases
    reclaimed, and crashes while its first grants boot; the recovered
    plane's reconciler requeues the stranded jobs and terminates the
    VMs their provisions booted."""
    run = run_world(EVERY_PATH)
    log = run["log"]
    for fact in ('"cause": "renew"', '"to": "replaced"',
                 '"cause": "spot-reclaimed"', '"cause": "reconcile:stuck"'):
        assert fact in log, fact
    grants = [json.loads(line)["detail"]["allocation"]
              for line in log.splitlines() if '"cause": "dispatch"' in line]
    assert any(len(allocation) > 1 for allocation in grants)
    plane = run["plane"]
    assert plane.scheduler.grows and plane.scheduler.shrinks
    heals = plane.metrics.counter("reconciler.heals",
                                  labels={"kind": "orphan-vm"})
    assert heals.value > 0
    assert all(job[1] == "completed" for job in run["jobs"])
    assert_matches_reference(EVERY_PATH)
