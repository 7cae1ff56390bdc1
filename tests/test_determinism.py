"""Whole-system determinism: identical seeds give identical runs.

The HPC guides' reproducibility requirement, verified end-to-end: two
full scenario executions (provisioning, MapReduce, migration, billing)
must produce byte-identical results.
"""

import numpy as np

from repro.emr import DeadlineScalePolicy, ElasticMapReduceService
from repro.sky import SkyMigrationService
from repro.testbeds import two_cloud_testbed
from repro.workloads import blast_job


def run_scenario(seed: int):
    tb = two_cloud_testbed(memory_pages=1024, image_blocks=4096,
                           seed=seed)
    sim, fed = tb.sim, tb.federation
    service = ElasticMapReduceService(fed, tb.image_name,
                                      rng=np.random.default_rng(seed))
    emr = sim.run(until=service.create_cluster(4))
    job = blast_job(np.random.default_rng(seed), n_query_batches=16,
                    mean_batch_seconds=20)
    report = sim.run(until=service.run_job(
        emr, job, deadline=sim.now + 400,
        scale_policy=DeadlineScalePolicy(check_interval=15, step=2)))
    # One inter-cloud migration for good measure.
    mover = emr.cluster.workers[0]
    dst = "chicago" if mover.site == "rennes" else "rennes"
    mig = sim.run(until=SkyMigrationService(fed).migrate_vm(mover, dst))
    # VM names embed a process-global cluster counter; normalize so two
    # runs in one process compare equal.
    import re

    def norm(name):
        return re.sub(r"^vc\d+-", "vc-", name)

    return {
        "makespan": report.makespan,
        "finished_at": report.result.finished_at,
        "tasks_per_node": {
            norm(k): v for k, v in report.result.tasks_per_node.items()
        },
        "nodes_added": report.nodes_added,
        "billing": dict(tb.billing.pair_bytes),
        "migration_wire": mig.stats.wire_bytes,
        "migration_duration": mig.stats.duration,
        "final_time": sim.now,
        "egress": dict(tb.billing.egress_bytes),
    }


def test_identical_seeds_identical_runs():
    assert run_scenario(7) == run_scenario(7)


def test_different_seeds_differ():
    a, b = run_scenario(7), run_scenario(8)
    assert a != b


def test_module_doctests():
    """Run the embedded doctests of every module in the package."""
    import doctest
    import importlib
    import pkgutil

    import repro

    failed = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(info.name)
        failures, _tested = doctest.testmod(mod)
        if failures:
            failed[info.name] = failures
    assert failed == {}
