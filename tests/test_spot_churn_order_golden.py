"""Golden order of the spot economics in the full ``spot_churn_500`` run.

``golden/spot_churn_order.json`` holds, per seed (0 and 1), SHA-256
digests of three sequences of the full-size ``SpotChurn500`` scenario
(``benchmarks/e2e/scenarios.py``: 500 jobs on spot-backed leases under
three spiking markets):

* ``eventlog`` — the control plane's event log as JSONL, every enrolment,
  finalisation, lease and job transition in commit order;
* ``segments`` — each cloud's closed billing segments, in closing order
  (clouds by name);
* ``spot_events`` — ``plane.spot.events``, the reclamation audit trail.

The pinned outputs of the benchmark only carry totals; these digests
also pin the order in which the spot, reclaim and billing queries hand
out leases, backings and instances.  Smoke size is not enough: at seed 1
it has no reclamation at all, and at seed 0 it has 25 audit records
against the full run's 388.  Neither size preempts a lease; the property
test in ``test_properties_spot.py`` covers that path.

Each seed runs in a fresh interpreter, as a benchmark rep does: job,
lease and cluster ids come from class-level counters that earlier tests
in the same process would have advanced.  Regenerate only for an
intended change to spot behaviour::

    PYTHONPATH=src python -m tests.test_spot_churn_order_golden
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.controlplane import eventlog_of

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios", ROOT / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)

GOLDEN = (Path(__file__).resolve().parent / "golden"
          / "spot_churn_order.json")
SEEDS = (0, 1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(seed: int) -> dict:
    """Run the full-size SpotChurn500 at ``seed``; digest its orders."""
    scenario = scenarios.SpotChurn500(seed)
    scenario.run()
    sim = scenario.tb.sim
    segments = {name: cloud.meter._closed
                for name, cloud in sorted(scenario.tb.clouds.items())}
    spot = scenario.plane.spot
    return {
        "eventlog": _sha(eventlog_of(sim).to_jsonl()),
        "segments": _sha(json.dumps(segments)),
        "spot_events": _sha(json.dumps(
            [dataclasses.astuple(e) for e in spot.events])),
        "counts": {"events": len(eventlog_of(sim)),
                   "segments": sum(len(s) for s in segments.values()),
                   "spot_events": len(spot.events),
                   "preemptions": spot.preemptions,
                   "outcomes": dict(spot.outcomes)},
    }


def fresh_digests(seed: int) -> dict:
    """:func:`digests` in a new interpreter."""
    code = ("import json\n"
            "from tests.test_spot_churn_order_golden import digests\n"
            f"print(json.dumps(digests({seed})))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(done.stdout)


@pytest.mark.parametrize("seed", SEEDS)
def test_spot_churn_orders_match_golden(seed):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[str(seed)]
    got = fresh_digests(seed)
    assert got["counts"] == want["counts"]
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {str(seed): fresh_digests(seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
