"""The MapReduce engine against its dispatch and placement reference.

Random clusters run one or two queued jobs twice: once on the library
:class:`~repro.mapreduce.JobTracker` and :class:`~repro.mapreduce.BlockStore`,
once on :class:`tests.mr_dispatch_oracle.ReferenceJobTracker` and
``ReferenceBlockStore``.  The clusters span one to three sites, place
splits with replication 1 to 4, run with speculation on and off, and
lose trackers mid-job (gracefully or forced) or gain new ones.  Every
task start ``[time, tracker, kind, index]``, every field of every job
result, every drain event's firing time, the clock and the kernel's
sequence number must agree.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import MemoryImage, PhysicalHost, VirtualMachine
from repro.mapreduce import BlockStore, JobTracker, MapReduceJob
from repro.mapreduce.engine import TaskTracker
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Simulator

from tests.mr_dispatch_oracle import ReferenceBlockStore, ReferenceJobTracker

#: Simulated time the world keeps running after its last job ends, so
#: late drains still fire.
TAIL = 300.0


def run_world(jt_cls, store_cls, world):
    """Run ``world`` on one engine; returns what the engines must agree on."""
    rng = np.random.default_rng(world["seed"])
    sim = Simulator()
    topo = Topology()
    sites = [f"s{i}" for i in range(world["n_sites"])]
    for name in sites:
        topo.add_site(Site(name, lan_bandwidth=gbit_per_s(1)))
    for name in sites[1:]:
        topo.connect(sites[0], name, bandwidth=1e7, latency=0.01)
    host = {name: PhysicalHost(f"h-{name}", name, cores=512,
                               ram_bytes=1024 * 2**30) for name in sites}
    jt = jt_cls(sim, FlowScheduler(sim, topo),
                hdfs=store_cls(replication=world["replication"]),
                rng=np.random.default_rng(world["seed"]),
                speculative=world["speculative"],
                speculative_min_samples=2)
    made, drains = [], []

    def add_node():
        k = len(made)
        vm = VirtualMachine(sim, f"w{k}", MemoryImage(64), vcpus=1 + k % 2)
        host[sites[k % len(sites)]].place(vm)
        vm.boot()
        made.append(vm)
        jt.add_tracker(vm, speed=float(rng.choice([0.25, 1.0, 1.0])))

    def watch(name, drained):
        yield drained
        drains.append((name, sim.now))

    def churn():
        for delay, action, pick, graceful in world["changes"]:
            yield sim.timeout(delay)
            live = [vm for vm in made if vm.name in jt.trackers]
            if action == "add":
                add_node()
            elif len(live) > 1:
                vm = live[pick % len(live)]
                sim.process(watch(vm.name,
                                  jt.remove_tracker(vm, graceful=graceful)))

    def second_job(delay, job):
        yield sim.timeout(delay)
        return (yield jt.submit(job))

    for _ in range(world["n_nodes"]):
        add_node()
    jobs = [MapReduceJob(f"j{k}", rng.lognormal(np.log(10.0), 0.5, n_maps),
                         np.full(n_reduces, 3.0), split_bytes=2e5,
                         map_output_bytes=1e5)
            for k, (n_maps, n_reduces) in enumerate(world["jobs"])]
    procs = [jt.submit(jobs[0])]
    if len(jobs) > 1:
        procs.append(sim.process(second_job(world["second_at"], jobs[1])))
    sim.process(churn())
    sim.run(until=sim.all_of(procs))
    sim.run(until=sim.now + TAIL)
    return {"results": [dataclasses.asdict(p.value) for p in procs],
            "drains": drains, "now": sim.now, "seq": sim._seq}


def run_both(world):
    starts = []
    execute = TaskTracker._execute

    def logged(tracker, task):
        starts[-1].append([tracker.sim.now, tracker.name, task.kind.value,
                           task.index])
        return execute(tracker, task)

    TaskTracker._execute = logged
    try:
        outcomes = []
        for jt_cls, store_cls in ((JobTracker, BlockStore),
                                  (ReferenceJobTracker, ReferenceBlockStore)):
            starts.append([])
            outcomes.append(run_world(jt_cls, store_cls, world))
    finally:
        TaskTracker._execute = execute
    return starts, outcomes


def assert_same(world):
    (got_starts, want_starts), (got, want) = run_both(world)
    assert len(got_starts) == len(want_starts)
    for i, (g, w) in enumerate(zip(got_starts, want_starts)):
        assert g == w, f"task start {i} differs"
    assert got == want
    return got_starts, got


_change = st.tuples(
    st.floats(0.0, 15.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(["remove", "remove", "add"]),
    st.integers(0, 15),
    st.booleans(),
)

worlds = st.fixed_dictionaries({
    "n_nodes": st.integers(1, 8),
    "n_sites": st.integers(1, 3),
    "replication": st.integers(1, 4),
    "speculative": st.booleans(),
    "jobs": st.lists(st.tuples(st.integers(1, 30), st.integers(0, 3)),
                     min_size=1, max_size=2),
    "second_at": st.sampled_from([0.0, 0.0, 12.0]),
    "changes": st.lists(_change, max_size=6),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=40, deadline=None)
@given(world=worlds)
def test_engine_matches_dispatch_reference(world):
    assert_same(world)


def test_reference_check_covers_every_path():
    """A fixed world per speculation setting: two queued jobs, a forced
    and two graceful removals mid-job, an addition, replication 3."""
    for speculative in (False, True):
        world = {"n_nodes": 6, "n_sites": 2, "replication": 3,
                 "speculative": speculative, "jobs": [(24, 2), (12, 1)],
                 "second_at": 0.0, "seed": 5,
                 "changes": [(6.0, "remove", 0, False), (0.5, "add", 0, True),
                             (0.5, "remove", 1, True),
                             (7.0, "remove", 2, True)]}
        starts, got = assert_same(world)
        assert len(starts) >= 24 + 2 + 12 + 1
        assert len(got["drains"]) == 3
        assert any(r["reexecuted_tasks"] for r in got["results"])
        assert any(r["speculative_launched"]
                   for r in got["results"]) == speculative
