"""Golden dispatch order of the MapReduce engine.

``golden/mr_blast32_assignments.json`` holds the exact sequence of task
starts — ``[time, tracker position, kind, index]`` — of a smoke-size
SCALE run: a 32-VM chain+CoW cluster on four clouds running a 128-batch
BLAST job.
Any change to how the JobTracker hands out work (which tracker gets
which split, and when) shows up here as a diff against that sequence.
Regenerate it only for an intended scheduling change::

    PYTHONPATH=src python -m tests.test_mapreduce_dispatch_golden
"""

import json
from pathlib import Path

import numpy as np

from repro.mapreduce import JobTracker, MapReduceJob
from repro.mapreduce.engine import TaskTracker
from repro.testbeds import SiteSpec, sky_testbed

from tests.test_mapreduce_speculation import build, straggler_job

GOLDEN = Path(__file__).resolve().parent / "golden" / "mr_blast32_assignments.json"


def blast32_assignments():
    """Run the smoke BLAST job; return its task starts and result."""
    tb = sky_testbed(
        sites=[SiteSpec(f"c{i}", n_hosts=3, cores_per_host=16,
                        region="eu" if i < 2 else "us")
               for i in range(4)],
        memory_pages=256, image_blocks=1024, seed=0)
    sim = tb.sim
    cluster = sim.run(until=tb.federation.create_virtual_cluster(
        tb.image_name, 32))
    rng = np.random.default_rng(1)
    job = MapReduceJob("blast", rng.lognormal(np.log(60.0), 0.25, 128),
                       np.full(1, 5.0), split_bytes=1e6,
                       map_output_bytes=256 * 1024)
    jt = JobTracker(sim, tb.scheduler, rng=np.random.default_rng(2))
    # Trackers by position in the cluster: VM names carry a
    # process-wide cluster counter.
    position = {vm.name: k for k, vm in enumerate(cluster)}
    starts = []
    execute = TaskTracker._execute

    def logged(tracker, task):
        starts.append([sim.now, position[tracker.name], task.kind.value,
                       task.index])
        return execute(tracker, task)

    TaskTracker._execute = logged
    try:
        for vm in cluster:
            jt.add_tracker(vm)
        result = sim.run(until=jt.submit(job))
    finally:
        TaskTracker._execute = execute
    return {"starts": starts, "makespan": result.makespan,
            "local_maps": result.local_maps,
            "remote_maps": result.remote_maps}


def test_blast32_dispatch_matches_golden_sequence():
    got = json.loads(json.dumps(blast32_assignments()))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(got["starts"]) == len(want["starts"]) == 129
    for i, (g, w) in enumerate(zip(got["starts"], want["starts"])):
        assert g == w, f"task start {i} differs"
    assert got == want


def test_speculative_loser_is_killed_and_counted_as_wasted():
    """A straggler on the slow node gets a backup on a fast node; when
    the backup wins, the original attempt is killed and counted."""
    sim, jt = build()
    kills = []
    for tracker in jt.trackers.values():
        def spy(task, _tracker=tracker, _kill=tracker.kill_task):
            killed = _kill(task)
            kills.append((_tracker.name, task.kind.value, task.index,
                          killed))
            return killed

        tracker.kill_task = spy
    result = sim.run(until=jt.submit(straggler_job()))
    assert result.speculative_launched >= 1
    # Every backup beat its straggling original, which ran on the slow
    # node and was killed there mid-attempt.
    assert kills
    assert all(name == "slow0" and killed
               for name, _kind, _index, killed in kills)
    assert result.wasted_attempts == len(kills)
    assert sum(result.tasks_per_node.values()) == 10


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = blast32_assignments()
    starts = ",\n  ".join(json.dumps(s) for s in doc.pop("starts"))
    head = json.dumps(doc)[1:-1]
    GOLDEN.write_text(f'{{{head},\n "starts": [\n  {starts}\n ]}}\n',
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
