"""Tests for speculative execution (Hadoop straggler mitigation)."""

import numpy as np

from repro.hypervisor import MemoryImage, PhysicalHost, VirtualMachine
from repro.mapreduce import JobTracker, MapReduceJob
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Simulator


def build(n_fast=4, n_slow=1, slow_speed=0.15, speculative=True,
          **jt_kwargs):
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("s", lan_bandwidth=gbit_per_s(10)))
    sched = FlowScheduler(sim, topo)
    host = PhysicalHost("h", "s", cores=256, ram_bytes=1024 * 2**30)
    jt = JobTracker(sim, sched, rng=np.random.default_rng(0),
                    speculative=speculative, **jt_kwargs)
    for i in range(n_fast):
        vm = VirtualMachine(sim, f"fast{i}", MemoryImage(64))
        host.place(vm)
        vm.boot()
        jt.add_tracker(vm, speed=1.0)
    for i in range(n_slow):
        vm = VirtualMachine(sim, f"slow{i}", MemoryImage(64))
        host.place(vm)
        vm.boot()
        jt.add_tracker(vm, speed=slow_speed)
    return sim, jt


def straggler_job(n_maps=10):
    return MapReduceJob("straggle", np.full(n_maps, 10.0), np.array([]),
                        split_bytes=0, map_output_bytes=0)


def test_speculation_beats_straggler():
    results = {}
    for speculative in (False, True):
        sim, jt = build(speculative=speculative)
        result = sim.run(until=jt.submit(straggler_job()))
        results[speculative] = result
    # A 10s task on the 0.15x node takes 67s; speculation re-runs it on
    # a fast node (~10s) once the straggler is detected.
    assert results[True].makespan < results[False].makespan * 0.7
    assert results[True].speculative_launched >= 1


def test_speculation_counts_wasted_attempts():
    sim, jt = build()
    result = sim.run(until=jt.submit(straggler_job()))
    # Either the backup won and the original was killed, or vice versa:
    # one attempt per speculated task is wasted.
    assert result.wasted_attempts >= result.speculative_launched >= 1
    # Logical completions are exact: each map done once.
    assert sum(result.tasks_per_node.values()) == 10


def test_speculation_disabled_by_default():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("s"))
    jt = JobTracker(sim, FlowScheduler(sim, topo))
    assert jt.speculative is False


def test_no_speculation_without_enough_samples():
    sim, jt = build(n_fast=1, n_slow=1,
                    speculative_min_samples=100)
    result = sim.run(until=jt.submit(straggler_job(n_maps=4)))
    assert result.speculative_launched == 0


def test_speculation_homogeneous_cluster_launches_nothing():
    sim, jt = build(n_fast=4, n_slow=0)
    result = sim.run(until=jt.submit(straggler_job(n_maps=12)))
    assert result.speculative_launched == 0
    assert result.wasted_attempts == 0


def test_speculation_with_reduces():
    sim, jt = build()
    job = MapReduceJob("with-reduce", np.full(8, 10.0), np.full(2, 10.0),
                       split_bytes=0, map_output_bytes=1e5)
    result = sim.run(until=jt.submit(job))
    assert result.map_attempts >= 8
    assert result.reduce_attempts >= 2
    assert sum(result.tasks_per_node.values()) == 10


def test_killed_backup_slot_keeps_working():
    """After a speculative attempt is killed, its slot pulls new work."""
    sim, jt = build(n_fast=2, n_slow=1, slow_speed=0.3)
    job = straggler_job(n_maps=20)
    result = sim.run(until=jt.submit(job))
    assert sum(result.tasks_per_node.values()) == 20
    # Every tracker contributed throughout the job.
    assert len(result.tasks_per_node) >= 2


def test_drain_completes_when_speculative_sibling_kills_last_attempt():
    """A tracker draining gracefully while it runs the straggler: the
    backup wins, the straggler is killed, and the drain fires then."""
    sim, jt = build()
    slow = jt.trackers["slow0"]
    drained_at = []

    def scale_in():
        yield sim.timeout(25)
        assert any(slow.current_tasks.values())
        yield jt.remove_tracker(slow.vm, graceful=True)
        drained_at.append(sim.now)

    sim.process(scale_in())
    result = sim.run(until=jt.submit(straggler_job()))
    sim.run(until=sim.now + 200)
    assert result.speculative_launched == result.wasted_attempts == 1
    assert "slow0" not in result.tasks_per_node
    assert drained_at == [result.finished_at]


def remove_at_hand_out(graceful):
    """Remove ``fast0`` at t=10 after one zero-delay hop: its slot has
    just been handed ``map2`` but has not resumed to start it."""
    sim, jt = build(n_fast=2, n_slow=0, speculative=False)
    fast0 = jt.trackers["fast0"]
    job = MapReduceJob("six", np.full(6, 10.0), np.array([]),
                       split_bytes=0, map_output_bytes=0)
    seen = {}

    def scale_in():
        yield sim.timeout(10)
        yield sim.timeout(0)
        seen["held"] = [t.index for t in fast0.current_tasks.values() if t]
        drained = jt.remove_tracker(fast0.vm, graceful=graceful)
        seen["drained_at_once"] = drained.triggered
        yield drained
        seen["drained_at"] = sim.now

    sim.process(scale_in())
    result = sim.run(until=jt.submit(job))
    return result, seen


def test_graceful_removal_waits_for_a_handed_out_task():
    """A task handed to a slot is in flight: the drain waits for it."""
    result, seen = remove_at_hand_out(graceful=True)
    assert seen == {"held": [2], "drained_at_once": False,
                    "drained_at": 20.0}
    assert result.tasks_per_node == {"fast0": 2, "fast1": 4}
    assert result.reexecuted_tasks == 0


def test_forced_removal_requeues_a_handed_out_task():
    """A forced removal abandons a handed-out task like a running one:
    the slot is interrupted before it starts, the task runs elsewhere."""
    result, seen = remove_at_hand_out(graceful=False)
    assert seen == {"held": [2], "drained_at_once": True, "drained_at": 10.0}
    assert result.tasks_per_node == {"fast0": 1, "fast1": 5}
    assert result.reexecuted_tasks == 1
    assert result.makespan == 50.0
