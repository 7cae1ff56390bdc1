"""Golden watchtower payload and metrics export of the SLO dashboard demo.

``golden/obs_watchtower.json`` holds what ``examples/slo_dashboard.py``
writes to ``dashboard.json`` — its ``series``, ``exemplars``,
``objectives``, ``alerts``, ``drilldown``, ``kernel`` and
``generated_at`` sections — plus the full
:meth:`~repro.metrics.MetricsRecorder.dump_csv` text of the recorder the
dashboard was built from.  Together they pin every series name, sample,
exemplar and summary statistic of a labeled, traced, alerting run, so a
change to how instruments name or store their observations shows up
here as a diff.  ``rollups`` are left out: their entry keys are a
presentation choice of :mod:`repro.obs.rollup`, covered by its own
tests.  Regenerate only for an intended change to the recorded metrics::

    PYTHONPATH=src python -m tests.test_obs_watchtower_golden
"""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

from repro.controlplane.jobs import Job
from repro.controlplane.lease import Lease

EXAMPLE = (Path(__file__).resolve().parent.parent / "examples"
           / "slo_dashboard.py")
GOLDEN = Path(__file__).resolve().parent / "golden" / "obs_watchtower.json"

PINNED = ("series", "exemplars", "objectives", "alerts", "drilldown",
          "kernel", "generated_at")


def watchtower_run(out_dir) -> dict:
    """Run the dashboard demo into ``out_dir``; return the pinned payload
    sections and the recorder's CSV export."""
    spec = importlib.util.spec_from_file_location("slo_dashboard", EXAMPLE)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    dump_dashboard = example.dump_dashboard
    recorders = []

    def capturing_dump(metrics, *args, **kwargs):
        recorders.append(metrics)
        return dump_dashboard(metrics, *args, **kwargs)

    example.dump_dashboard = capturing_dump
    # Job and lease ids are process-wide counters; number from 1 as a
    # fresh interpreter does, whatever ran before in this process.
    saved = sys.argv, Job._ids, Lease._ids
    sys.argv = [str(EXAMPLE), str(out_dir)]
    Job._ids = itertools.count(1)
    Lease._ids = itertools.count(1)
    try:
        example.main()
    finally:
        sys.argv, Job._ids, Lease._ids = saved
    (metrics,) = recorders
    out_dir = Path(out_dir)
    payload = json.loads((out_dir / "dashboard.json")
                         .read_text(encoding="utf-8"))
    csv_path = out_dir / "metrics.csv"
    metrics.dump_csv(csv_path)
    return {"payload": {key: payload[key] for key in PINNED},
            "csv": csv_path.read_text(encoding="utf-8")}


def test_watchtower_payload_and_csv_match_golden(tmp_path):
    got = watchtower_run(tmp_path)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key in PINNED:
        assert got["payload"][key] == want["payload"][key], key
    assert got["csv"] == want["csv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = watchtower_run(tmp)
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
