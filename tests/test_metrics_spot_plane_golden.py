"""Golden metrics export of a traced, spot-backed control-plane run.

``golden/metrics_spot_plane.json`` holds the full
:meth:`~repro.metrics.MetricsRecorder.dump_csv` text of the recorder of
a small three-cloud scenario: two spot markets (one spikes above every
bid mid-run), a checkpoint refuge, two weighted tenants, six jobs, and
a :class:`~repro.obs.Tracer` on.  The text pins every series name,
label set and sample of a realistic labeled, traced run, so a change to
how instruments name or store their observations, or to what the
control plane and the spot layer record, shows up here as a diff.
Regenerate only for an intended change to the recorded metrics::

    PYTHONPATH=src python -m tests.test_metrics_spot_plane_golden
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from repro.cloud import SpotMarket
from repro.controlplane import ControlPlane, SchedulerConfig, SpotPolicy
from repro.controlplane.jobs import Job
from repro.controlplane.lease import Lease
from repro.obs import Tracer
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import SpotPriceProcess

GOLDEN = (Path(__file__).resolve().parent / "golden"
          / "metrics_spot_plane.json")


def spot_plane_run(out_dir) -> str:
    """Run the scenario; return its recorder's CSV export."""
    # Job and lease ids are process-wide counters; number from 1 as a
    # fresh interpreter does, whatever ran before in this process.
    saved = Job._ids, Lease._ids
    Job._ids = itertools.count(1)
    Lease._ids = itertools.count(1)
    try:
        tb = sky_testbed(
            sites=[SiteSpec("rennes", n_hosts=2, cores_per_host=8,
                            on_demand_hourly=0.10, region="eu"),
                   SiteSpec("sophia", n_hosts=2, cores_per_host=8,
                            on_demand_hourly=0.12, region="eu"),
                   SiteSpec("chicago", n_hosts=2, cores_per_host=8,
                            on_demand_hourly=0.14, region="us")],
            memory_pages=256, image_blocks=512,
        )
        sim = tb.sim
        markets = {
            "rennes": SpotMarket(
                sim, tb.clouds["rennes"],
                SpotPriceProcess(sim, np.array([0.0, 600.0, 1800.0]),
                                 np.array([0.02, 0.50, 0.02])),
                reclaim_grace=120.0),
            "sophia": SpotMarket(
                sim, tb.clouds["sophia"],
                SpotPriceProcess(sim, np.array([0.0]), np.array([0.03])),
                reclaim_grace=120.0),
        }
        plane = ControlPlane(
            sim, tb.federation, tb.image_name,
            config=SchedulerConfig(interval=10.0, lease_term=600.0),
            spot_markets=markets,
            spot_policy=SpotPolicy(refuge="chicago",
                                   checkpoint_interval=120.0),
            tracer=Tracer(sim),
        ).start()
        plane.register_tenant("alice", weight=1.0)
        plane.register_tenant("bob", weight=2.0)
        jobs = []
        for i in range(6):
            tenant = "alice" if i % 2 == 0 else "bob"
            jobs.append(plane.submit(tenant, n_nodes=2, runtime=900.0,
                                     name=f"{tenant}-{i}"))
        sim.run(until=plane.all_done(jobs))
    finally:
        Job._ids, Lease._ids = saved
    csv_path = Path(out_dir) / "metrics.csv"
    plane.metrics.dump_csv(csv_path)
    return csv_path.read_text(encoding="utf-8")


def test_spot_plane_metrics_csv_matches_golden(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert spot_plane_run(tmp_path) == want["csv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        csv_text = spot_plane_run(tmp)
    GOLDEN.write_text(json.dumps({"csv": csv_text}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
