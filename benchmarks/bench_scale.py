"""SCALE — virtual clusters at the paper's target sizes.

Paper §II: "creating infrastructures with hundreds or thousands of
nodes present new challenges linked to scalability of cloud
infrastructures and distributed applications" — the experiments on
FutureGrid + Grid'5000 ran virtual clusters of hundreds of nodes.

This bench provisions sky-computing clusters of 64..512 nodes across
four clouds (chain+CoW propagation, overlay join, contextualization
barrier) and runs a proportionally sized BLAST job on each, reporting
provisioning time, makespan, locality and the simulator's wall-clock
cost — demonstrating the harness operates at the paper's scale.
"""

import time

import numpy as np
import pytest

from repro.mapreduce import JobTracker
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import blast_job

from _tables import pct, print_table

SIZES = (64, 128, 256, 512)


def run_at_scale(n_nodes: int):
    wall_start = time.time()
    per_cloud_hosts = max(2, n_nodes // 4 // 8 + 2)
    tb = sky_testbed(
        sites=[SiteSpec(f"c{i}", n_hosts=per_cloud_hosts,
                        cores_per_host=16,
                        region="eu" if i < 2 else "us")
               for i in range(4)],
        memory_pages=256, image_blocks=1024,
    )
    sim = tb.sim
    t0 = sim.now
    cluster = sim.run(until=tb.federation.create_virtual_cluster(
        tb.image_name, n_nodes))
    provision_time = sim.now - t0
    jt = JobTracker(sim, tb.scheduler, rng=np.random.default_rng(0))
    for vm in cluster:
        jt.add_tracker(vm)
    job = blast_job(np.random.default_rng(1), n_query_batches=4 * n_nodes,
                    mean_batch_seconds=60, db_shard_bytes=1e6)
    result = sim.run(until=jt.submit(job))
    wall = time.time() - wall_start
    return {
        "n": n_nodes,
        "provision_s": provision_time,
        "makespan": result.makespan,
        "locality": result.locality_rate,
        "clouds": len(cluster.site_distribution()),
        "wall_s": wall,
    }


@pytest.mark.parametrize("n_nodes", [64, 256])
def test_scale_cluster_functions(benchmark, n_nodes):
    stats = benchmark.pedantic(run_at_scale, args=(n_nodes,), rounds=1,
                               iterations=1)
    assert stats["clouds"] == 4
    assert stats["locality"] > 0.8
    # Per-task work is constant, so makespan stays roughly flat as the
    # cluster and job grow together (weak scaling).
    assert stats["makespan"] < 600


def test_scale_summary_table(benchmark):
    def sweep():
        return [run_at_scale(n) for n in SIZES]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (s["n"], f"{s['provision_s']:.1f}", f"{s['makespan']:.0f}",
         pct(s["locality"]), f"{s['wall_s']:.2f}")
        for s in results
    ]
    print_table(
        "SCALE: weak-scaling BLAST (4 batches/node) on 4-cloud virtual "
        "clusters",
        ["nodes", "provision(s)", "makespan(s)", "locality",
         "simulator wall(s)"],
        rows,
    )
    print("shape: chain+CoW keeps provisioning ~flat; weak-scaling "
          "makespan ~constant to 512 nodes — 'hundreds or thousands of "
          "nodes'")
    # Weak scaling holds within straggler noise.
    makespans = [s["makespan"] for s in results]
    assert max(makespans) < 2 * min(makespans)
