"""The per-node pending-split index picks what a linear scan picks.

``JobTracker._pick`` hands a tracker the first pending map whose split
is local to it, else the head of the pending order.  The engine answers
from a per-node index with lazy deletion; the reference here is the
linear scan over a plain pending list, inlined.  A shadow list is kept
exactly as that scan kept its own (appended on every queued map, popped
at the pick), and every pick must return the very task object the scan
returns, with the engine's pending order equal to the shadow afterwards.

Random clusters with speculation on and off lose trackers mid-job,
gracefully or forced, and gain new ones: forced removals re-queue
running maps (``_requeue``), removals while reducers still wait
re-execute lost map outputs, and every removal drops replicas.  A
removed node may rejoin under its old name: it keeps its entries in the
index but lost its replicas, so only the ``is_local`` re-check keeps its
picks right.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import MemoryImage, PhysicalHost, VirtualMachine
from repro.mapreduce import BlockStore, JobTracker, MapReduceJob
from repro.mapreduce.engine import _JobRun
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Simulator


def linear_pick(jt, run, tracker, shadow):
    """The scan over a plain pending list, popping what it picks."""
    for i, task in enumerate(shadow):
        if jt.hdfs.is_local(tracker.vm, run.job, task.index):
            return shadow.pop(i)
    return shadow.pop(0) if shadow else None


def run_checked(n_nodes, n_sites, replication, n_maps, n_reduces,
                speculative, seed, changes):
    """Run one job under the scan check; returns ``(result, picks)``."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    topo = Topology()
    sites = [f"s{i}" for i in range(n_sites)]
    for name in sites:
        topo.add_site(Site(name, lan_bandwidth=gbit_per_s(1)))
    for i in range(1, n_sites):
        topo.connect(sites[0], sites[i], bandwidth=1e7, latency=0.01)
    host = {name: PhysicalHost(f"h-{name}", name, cores=512,
                               ram_bytes=1024 * 2**30) for name in sites}
    jt = JobTracker(sim, FlowScheduler(sim, topo),
                    hdfs=BlockStore(replication=replication),
                    rng=np.random.default_rng(seed), speculative=speculative,
                    speculative_min_samples=2)
    made = []

    def add_node():
        k = len(made)
        vm = VirtualMachine(sim, f"w{k}", MemoryImage(64),
                            vcpus=1 + k % 2)
        host[sites[k % n_sites]].place(vm)
        vm.boot()
        made.append(vm)
        jt.add_tracker(vm, speed=float(rng.choice([0.25, 1.0, 1.0])))

    def rejoin():
        gone = [vm for vm in made if vm.name not in jt.trackers]
        if gone:
            jt.add_tracker(gone[0])

    for _ in range(n_nodes):
        add_node()
    job = MapReduceJob("j", rng.lognormal(np.log(10.0), 0.5, n_maps),
                       np.full(n_reduces, 3.0), split_bytes=2e5,
                       map_output_bytes=1e5)

    shadows = {}
    picks = []
    push, pick = _JobRun.push_map, JobTracker._pick

    def shadow_push(run, task):
        shadows.setdefault(run, []).append(task)
        push(run, task)

    def checked_pick(tracker_jt, run, tracker):
        shadow = shadows.setdefault(run, [])
        want = linear_pick(tracker_jt, run, tracker, shadow)
        got = pick(tracker_jt, run, tracker)
        if want is not None:
            assert got is want
        pending = run.pending_maps
        assert len(pending) == len(shadow)
        assert all(a is b for a, b in zip(pending, shadow))
        if got is not None:
            picks.append((tracker.name, got.kind.value, got.index))
        return got

    def churn():
        for delay, action, pick_node, graceful in changes:
            yield sim.timeout(delay)
            live = [vm for vm in made if vm.name in jt.trackers]
            if action == "add":
                add_node()
            elif action == "rejoin":
                rejoin()
            elif len(live) > 1:
                jt.remove_tracker(live[pick_node % len(live)],
                                  graceful=graceful)

    _JobRun.push_map, JobTracker._pick = shadow_push, checked_pick
    try:
        proc = jt.submit(job)
        sim.process(churn())
        result = sim.run(until=proc)
    finally:
        _JobRun.push_map, JobTracker._pick = push, pick
    return result, picks


_change = st.tuples(
    st.floats(0.0, 15.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(["remove", "remove", "add", "rejoin"]),
    st.integers(0, 15),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(1, 8),
    n_sites=st.integers(1, 3),
    replication=st.integers(1, 3),
    n_maps=st.integers(1, 30),
    n_reduces=st.integers(0, 3),
    speculative=st.booleans(),
    seed=st.integers(0, 2**16),
    changes=st.lists(_change, max_size=6),
)
def test_index_picks_match_linear_scan(n_nodes, n_sites, replication,
                                       n_maps, n_reduces, speculative,
                                       seed, changes):
    result, picks = run_checked(n_nodes, n_sites, replication, n_maps,
                                n_reduces, speculative, seed, changes)
    assert result.map_attempts >= n_maps
    assert len(picks) >= n_maps + n_reduces


def test_scan_check_covers_requeue_and_lost_outputs():
    """Forced removals mid-map and a removal once maps are done re-run
    work through both re-queue paths, speculation on and off."""
    changes = [(6.0, "remove", 0, False), (0.5, "add", 0, True),
               (0.5, "remove", 1, True), (0.5, "rejoin", 0, True),
               (7.0, "remove", 2, True), (3.0, "remove", 1, False)]
    for speculative in (False, True):
        result, picks = run_checked(6, 2, 2, 24, 2, speculative, 5, changes)
        assert result.reexecuted_tasks > 0
        assert result.remote_maps > 0
        assert len(picks) >= 26
