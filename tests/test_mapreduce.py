"""Tests for the MapReduce engine: scheduling, locality, shuffle,
elasticity and fault tolerance."""

import numpy as np
import pytest

from repro.hypervisor import MemoryImage, PhysicalHost, VirtualMachine
from repro.mapreduce import (
    BlockStore,
    ElasticCluster,
    JobTracker,
    MapReduceJob,
    TaskKind,
)
from repro.network import FlowScheduler, Site, Topology, gbit_per_s, mbit_per_s
from repro.simkernel import Simulator
from repro.workloads.blast import blast_job


def build_cluster(n_nodes=4, vcpus=2, sites=("s1",), cross_bw=mbit_per_s(500)):
    sim = Simulator()
    topo = Topology()
    for s in sites:
        topo.add_site(Site(s, lan_bandwidth=gbit_per_s(10)))
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            topo.connect(a, b, bandwidth=cross_bw, latency=0.05)
    sched = FlowScheduler(sim, topo)
    hosts = {
        s: PhysicalHost(f"h-{s}", s, cores=256, ram_bytes=1024 * 2**30)
        for s in sites
    }
    jt = JobTracker(sim, sched, rng=np.random.default_rng(0))
    vms = []
    for i in range(n_nodes):
        site = sites[i % len(sites)]
        vm = VirtualMachine(sim, f"w{i}", MemoryImage(256), vcpus=vcpus)
        hosts[site].place(vm)
        vm.boot()
        vms.append(vm)
        jt.add_tracker(vm)
    return sim, sched, jt, vms, hosts


def simple_job(n_maps=8, map_s=10.0, n_reduces=2, reduce_s=5.0,
               split=1e6, out=1e5):
    return MapReduceJob(
        "test", np.full(n_maps, map_s), np.full(n_reduces, reduce_s),
        split_bytes=split, map_output_bytes=out,
    )


# -- job model ----------------------------------------------------------------


def test_job_validation():
    with pytest.raises(ValueError):
        MapReduceJob("bad", np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        MapReduceJob("bad", np.array([-1.0]), np.array([]))
    with pytest.raises(ValueError):
        MapReduceJob("bad", np.array([1.0]), np.array([]), split_bytes=-1)


def test_job_task_generation():
    job = simple_job(n_maps=3, n_reduces=2)
    tasks = job.make_tasks()
    assert len(tasks) == 5
    assert sum(t.kind is TaskKind.MAP for t in tasks) == 3
    assert job.total_cpu_seconds == pytest.approx(3 * 10 + 2 * 5)


# -- block store ------------------------------------------------------------


def test_blockstore_replication():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=4)
    store = BlockStore(replication=2)
    for vm in vms:
        store.add_node(vm)
    job = simple_job(n_maps=8)
    store.load_input(job, np.random.default_rng(0))
    for split in range(8):
        locs = store.locations(job, split)
        assert len(locs) == 2
        assert len(set(locs)) == 2


def test_blockstore_remove_node_drops_replicas():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=2)
    store = BlockStore(replication=2)
    for vm in vms:
        store.add_node(vm)
    job = simple_job(n_maps=4)
    store.load_input(job, np.random.default_rng(0))
    store.remove_node(vms[0])
    for split in range(4):
        assert vms[0].name not in store.locations(job, split)
    assert store.any_replica_node(job, 0) is vms[1]


def others_list_placement(names, n_maps, replication, rng):
    """Replica placement as first written: the list of every node but
    the primary, built per split, indexed by the draw."""
    n = len(names)
    reps = min(replication, n)
    placement = []
    for split in range(n_maps):
        primary = split % n
        others = [i for i in range(n) if i != primary]
        if others and reps > 1:
            extra = rng.choice(len(others), size=reps - 1, replace=False)
            chosen = [primary] + [others[i] for i in extra]
        else:
            chosen = [primary]
        placement.append([names[i] for i in chosen])
    return placement


@pytest.mark.parametrize("n, replication, seed", [
    (1, 1, 0), (1, 3, 1), (2, 2, 2), (5, 3, 3), (16, 2, 4), (7, 7, 5),
    (9, 12, 6),
])
def test_blockstore_placement_matches_others_list(n, replication, seed):
    sim = Simulator()
    vms = [VirtualMachine(sim, f"n{i}", MemoryImage(8)) for i in range(n)]
    store = BlockStore(replication=replication)
    for vm in vms:
        store.add_node(vm)
    job = simple_job(n_maps=3 * n + 5)
    store.load_input(job, np.random.default_rng(seed))
    want = others_list_placement([vm.name for vm in vms], job.n_maps,
                                 replication, np.random.default_rng(seed))
    assert [store.locations(job, split) for split in range(job.n_maps)] \
        == want


def test_blockstore_validation():
    with pytest.raises(ValueError):
        BlockStore(replication=0)
    store = BlockStore()
    with pytest.raises(RuntimeError):
        store.load_input(simple_job(), np.random.default_rng(0))


# -- execution ----------------------------------------------------------------


def test_job_runs_to_completion():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=4, vcpus=2)
    job = simple_job(n_maps=16, map_s=10, n_reduces=2)
    result = sim.run(until=jt.submit(job))
    assert result.map_attempts == 16
    assert result.reduce_attempts == 2
    # 16 maps on 8 slots ~ 2 waves of 10 s + reduces.
    assert result.makespan >= 20
    assert result.makespan < 60
    assert sum(result.tasks_per_node.values()) == 18


def test_submit_without_trackers_rejected():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("s"))
    jt = JobTracker(sim, FlowScheduler(sim, topo))
    with pytest.raises(RuntimeError):
        jt.submit(simple_job())


def test_makespan_scales_with_workers():
    times = {}
    for n in (2, 8):
        sim, sched, jt, vms, _ = build_cluster(n_nodes=n, vcpus=2)
        job = simple_job(n_maps=32, map_s=10, n_reduces=0)
        result = sim.run(until=jt.submit(job))
        times[n] = result.makespan
    # 4x the slots -> ~4x faster for an embarrassingly parallel job.
    assert times[2] / times[8] > 3.0


def test_data_locality_preferred():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=4, vcpus=1)
    job = simple_job(n_maps=16, map_s=5, n_reduces=0, split=50e6)
    result = sim.run(until=jt.submit(job))
    assert result.locality_rate > 0.6
    assert result.local_maps + result.remote_maps == 16


def test_remote_maps_fetch_input_over_network():
    # Input is loaded while only one node exists; a node joining after
    # the job starts holds no replicas, so its maps fetch remotely.
    sim, sched, jt, vms, hosts = build_cluster(n_nodes=1, vcpus=1)
    jt.hdfs.replication = 1
    job = simple_job(n_maps=8, map_s=5, n_reduces=0, split=10e6)
    proc = jt.submit(job)

    def joiner(sim):
        yield sim.timeout(7)
        vm = VirtualMachine(sim, "fresh", MemoryImage(256), vcpus=1)
        hosts["s1"].place(vm)
        vm.boot()
        jt.add_tracker(vm)

    sim.process(joiner(sim))
    result = sim.run(until=proc)
    assert result.remote_maps > 0
    assert result.input_fetch_bytes == result.remote_maps * 10e6


def test_shuffle_moves_map_outputs():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=4, vcpus=1)
    job = simple_job(n_maps=8, map_s=2, n_reduces=2, out=4e6)
    result = sim.run(until=jt.submit(job))
    # Each reduce fetches 8 * (4e6/2) minus local outputs.
    assert result.shuffle_bytes > 0
    assert result.shuffle_bytes <= 8 * 4e6


def test_traffic_recorder_sees_app_bytes():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=4, vcpus=1)
    log = []
    jt.traffic_recorder = lambda s, d, b, tag: log.append((s, d, b, tag))
    jt.hdfs.replication = 1
    job = simple_job(n_maps=8, map_s=2, n_reduces=2, out=4e6, split=5e6)
    result = sim.run(until=jt.submit(job))
    tags = {t for _, _, _, t in log}
    assert "mr-shuffle" in tags
    recorded_shuffle = sum(b for _, _, b, t in log if t == "mr-shuffle")
    assert recorded_shuffle == pytest.approx(result.shuffle_bytes)


def test_jobs_queue_fifo():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=2, vcpus=1)
    j1 = simple_job(n_maps=4, map_s=10, n_reduces=0)
    j2 = simple_job(n_maps=4, map_s=10, n_reduces=0)
    p1 = jt.submit(j1)
    p2 = jt.submit(j2)
    r2 = sim.run(until=p2)
    r1 = p1.value
    assert r1.finished_at <= r2.started_at + 1e-9


def test_heterogeneous_speeds_shift_work():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=2, vcpus=1)
    jt.remove_tracker(vms[0])
    jt.remove_tracker(vms[1])
    jt.add_tracker(vms[0], speed=4.0)
    jt.add_tracker(vms[1], speed=1.0)
    job = simple_job(n_maps=20, map_s=10, n_reduces=0, split=0)
    result = sim.run(until=jt.submit(job))
    assert result.tasks_per_node[vms[0].name] > result.tasks_per_node[vms[1].name]


# -- elasticity (paper SII) ---------------------------------------------------


def test_adding_nodes_mid_job_shortens_makespan():
    results = {}
    for grow in (False, True):
        sim, sched, jt, vms, hosts = build_cluster(n_nodes=2, vcpus=1)
        job = simple_job(n_maps=24, map_s=20, n_reduces=0)
        proc = jt.submit(job)
        if grow:
            def grower(sim):
                yield sim.timeout(60)
                for i in range(4):
                    vm = VirtualMachine(sim, f"new{i}", MemoryImage(256),
                                        vcpus=1)
                    hosts["s1"].place(vm)
                    vm.boot()
                    jt.add_tracker(vm)
            sim.process(grower(sim))
        results[grow] = sim.run(until=proc).makespan
    assert results[True] < results[False] * 0.7


def test_new_nodes_receive_tasks_mid_job():
    sim, sched, jt, vms, hosts = build_cluster(n_nodes=2, vcpus=1)
    job = simple_job(n_maps=24, map_s=20, n_reduces=0)
    proc = jt.submit(job)
    late_node = {}

    def grower(sim):
        yield sim.timeout(60)
        vm = VirtualMachine(sim, "late", MemoryImage(256), vcpus=1)
        hosts["s1"].place(vm)
        vm.boot()
        jt.add_tracker(vm)
        late_node["vm"] = vm

    sim.process(grower(sim))
    result = sim.run(until=proc)
    assert result.tasks_per_node.get("late", 0) > 0


def test_graceful_removal_requeues_nothing_but_loses_no_work():
    sim, sched, jt, vms, hosts = build_cluster(n_nodes=4, vcpus=1)
    job = simple_job(n_maps=16, map_s=10, n_reduces=0)
    proc = jt.submit(job)

    def shrinker(sim):
        yield sim.timeout(15)
        jt.remove_tracker(vms[3], graceful=True)

    sim.process(shrinker(sim))
    result = sim.run(until=proc)
    assert result.map_attempts >= 16
    assert sum(result.tasks_per_node.values()) >= 16


def test_forced_removal_reexecutes_running_tasks():
    sim, sched, jt, vms, hosts = build_cluster(n_nodes=4, vcpus=1)
    job = simple_job(n_maps=16, map_s=10, n_reduces=0)
    proc = jt.submit(job)

    def killer(sim):
        yield sim.timeout(15)  # mid second wave
        jt.remove_tracker(vms[3], graceful=False)

    sim.process(killer(sim))
    result = sim.run(until=proc)
    assert result.reexecuted_tasks >= 1
    # All 16 logical maps still completed.
    assert result.map_attempts >= 16


def test_lost_map_outputs_reexecuted_for_reducers():
    sim, sched, jt, vms, hosts = build_cluster(n_nodes=4, vcpus=1)
    job = simple_job(n_maps=8, map_s=5, n_reduces=2, reduce_s=30, out=1e6)
    proc = jt.submit(job)

    def killer(sim):
        # After maps are done (8 maps / 4 slots * 5 s = 10 s) but while
        # reduces run, kill a node that holds map outputs.
        yield sim.timeout(15)
        jt.remove_tracker(vms[0], graceful=False)

    sim.process(killer(sim))
    result = sim.run(until=proc)
    assert result.reexecuted_tasks >= 1
    assert result.map_attempts > 8  # some maps ran twice


def test_remove_unknown_tracker_rejected():
    sim, sched, jt, vms, _ = build_cluster(n_nodes=1)
    stranger = VirtualMachine(sim, "x", MemoryImage(16))
    with pytest.raises(ValueError):
        jt.remove_tracker(stranger)


def test_elastic_cluster_wrapper():
    sim, sched, jt, vms, hosts = build_cluster(n_nodes=0)
    cluster = ElasticCluster(sim, jt)
    vm = VirtualMachine(sim, "n0", MemoryImage(256), vcpus=2)
    hosts["s1"].place(vm)
    vm.boot()
    cluster.add_node(vm)
    assert len(cluster) == 1
    assert cluster.total_slots == 2
    cluster.remove_node(vm)
    assert len(cluster) == 0
    with pytest.raises(ValueError):
        cluster.remove_node(vm)


# -- BLAST workload ---------------------------------------------------------


def test_blast_job_shape():
    rng = np.random.default_rng(0)
    job = blast_job(rng, n_query_batches=32, mean_batch_seconds=60)
    assert job.n_maps == 32
    assert job.n_reduces == 1
    assert job.map_cpu.mean() == pytest.approx(60, rel=0.2)
    assert job.map_output_bytes < job.split_bytes


def test_blast_job_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        blast_job(rng, n_query_batches=0)
    with pytest.raises(ValueError):
        blast_job(rng, mean_batch_seconds=0)


def test_blast_scales_near_linearly_across_clouds():
    """Paper SII: embarrassingly parallel BLAST suits sky computing."""
    makespans = {}
    for sites in (("s1",), ("s1", "s2")):
        sim, sched, jt, vms, _ = build_cluster(
            n_nodes=8, vcpus=1, sites=sites)
        rng = np.random.default_rng(1)
        job = blast_job(rng, n_query_batches=32, mean_batch_seconds=30,
                        db_shard_bytes=4e6)
        makespans[len(sites)] = sim.run(until=jt.submit(job)).makespan
    # Splitting the same cluster across two clouds costs only a few
    # percent for a map-heavy job.
    assert makespans[2] < makespans[1] * 1.15
