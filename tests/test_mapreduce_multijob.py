"""Tests for job queues, cross-job elasticity, and engine edge cases."""

import numpy as np
import pytest

from repro.hypervisor import MemoryImage, PhysicalHost, VirtualMachine
from repro.mapreduce import JobTracker, MapReduceJob
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Interrupt, Simulator
from repro.vine import ViNeOverlay


def build(n_nodes=4, speculative=False):
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("s", lan_bandwidth=gbit_per_s(10)))
    sched = FlowScheduler(sim, topo)
    host = PhysicalHost("h", "s", cores=256, ram_bytes=1024 * 2**30)
    jt = JobTracker(sim, sched, rng=np.random.default_rng(0),
                    speculative=speculative)
    vms = []
    for i in range(n_nodes):
        vm = VirtualMachine(sim, f"w{i}", MemoryImage(64))
        host.place(vm)
        vm.boot()
        vms.append(vm)
        jt.add_tracker(vm)
    return sim, jt, vms, host


def job(name, n_maps=8, map_s=5.0, n_reduces=0):
    return MapReduceJob(name, np.full(n_maps, map_s),
                        np.full(n_reduces, 2.0), split_bytes=0,
                        map_output_bytes=1e4)


def test_three_jobs_queue_and_all_complete():
    sim, jt, vms, host = build()
    procs = [jt.submit(job(f"j{i}")) for i in range(3)]
    results = [sim.run(until=p) if not p.triggered else p.value
               for p in procs]
    results = [p.value for p in procs]
    # Strict FIFO, no overlap.
    for earlier, later in zip(results, results[1:]):
        assert earlier.finished_at <= later.started_at + 1e-9
    assert all(r.map_attempts == 8 for r in results)


def test_node_removed_between_jobs_only_affects_later_capacity():
    sim, jt, vms, host = build(n_nodes=4)
    r1 = sim.run(until=jt.submit(job("first", n_maps=8, map_s=10)))
    jt.remove_tracker(vms[3])
    r2 = sim.run(until=jt.submit(job("second", n_maps=8, map_s=10)))
    assert r1.makespan == pytest.approx(20, rel=0.1)
    # 8 tasks on 3 slots: 3 waves.
    assert r2.makespan == pytest.approx(30, rel=0.1)
    assert "w3" not in r2.tasks_per_node


def test_node_added_between_jobs_serves_next_job():
    sim, jt, vms, host = build(n_nodes=2)
    sim.run(until=jt.submit(job("first", n_maps=4, map_s=5)))
    vm = VirtualMachine(sim, "late", MemoryImage(64))
    host.place(vm)
    vm.boot()
    jt.add_tracker(vm)
    r2 = sim.run(until=jt.submit(job("second", n_maps=9, map_s=5)))
    assert r2.tasks_per_node.get("late", 0) > 0


def test_speculation_state_does_not_leak_between_jobs():
    sim, jt, vms, host = build(n_nodes=3, speculative=True)
    jt.add_tracker(
        _slow_vm(sim, host), speed=0.1)
    r1 = sim.run(until=jt.submit(job("a", n_maps=6, map_s=10)))
    r2 = sim.run(until=jt.submit(job("b", n_maps=6, map_s=10)))
    for r in (r1, r2):
        # Each logical map completed exactly once per job.
        assert sum(r.tasks_per_node.values()) == 6


def _slow_vm(sim, host):
    vm = VirtualMachine(sim, f"slow-{id(sim) % 997}", MemoryImage(64))
    host.place(vm)
    vm.boot()
    return vm


def test_overlay_registered_cluster_runs_jobs():
    """MapReduce over overlay-addressed VMs (the sky-computing case)."""
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("s1", lan_bandwidth=gbit_per_s(10)))
    topo.add_site(Site("s2", lan_bandwidth=gbit_per_s(10)))
    topo.connect("s1", "s2", bandwidth=gbit_per_s(1), latency=0.03)
    sched = FlowScheduler(sim, topo)
    overlay = ViNeOverlay(sim, topo, ["s1", "s2"])
    hosts = {s: PhysicalHost(f"h-{s}", s, cores=64) for s in ("s1", "s2")}
    jt = JobTracker(sim, sched, rng=np.random.default_rng(0))
    for i in range(4):
        site = "s1" if i < 2 else "s2"
        vm = VirtualMachine(sim, f"w{i}", MemoryImage(64))
        hosts[site].place(vm)
        vm.boot()
        overlay.register(vm)
        jt.add_tracker(vm)
    result = sim.run(until=jt.submit(job("cross", n_maps=8, map_s=5,
                                         n_reduces=2)))
    assert result.map_attempts == 8
    assert result.reduce_attempts == 2


def test_interrupted_queued_job_leaves_fifo_order_intact():
    """A job withdrawn while queued gives its turn to the next in line."""
    sim, jt, vms, host = build()
    procs = [jt.submit(job(f"j{i}")) for i in range(3)]
    # Defuse j1's failure once it happens (a failing process resets it).
    procs[1].callbacks.append(lambda ev: setattr(ev, "defused", True))
    sim.run(until=1.0)
    procs[1].interrupt("withdrawn")
    sim.run(until=procs[2])
    r0, r2 = procs[0].value, procs[2].value
    assert (r0.started_at, r0.finished_at) == (0.0, 10.0)
    assert (r2.started_at, r2.finished_at) == (10.0, 20.0)
    assert procs[1].ok is False
    assert isinstance(procs[1].value, Interrupt)
