"""Golden order of the two full-size control-plane benchmark runs.

``golden/controlplane_order.json`` holds, per scenario (``ControlPlane1000``
and ``SpotChurn500`` from ``benchmarks/e2e/scenarios.py``) and per seed
(0 and 1), SHA-256 digests of

* ``eventlog`` — the control plane's event log as JSONL, every job and
  lease transition, renewal, enrolment and finalisation in commit order;
* ``segments`` — each cloud's closed billing segments, in closing order
  (clouds by name);
* ``jobs`` — the ``(name, started_at, finished_at)`` row of every job,
  in submission order;

plus ``seq``, the simulator's final sequence number.  The benchmark's
pinned outputs hold only totals and one schedule hash; these digests
pin the order of every fair-share decision and job tick, and ``seq``
pins the kernel's sequence stream, so a change to how rounds or job runs
are scheduled must reproduce every kernel key to pass.

Each case runs in a fresh interpreter, as a benchmark rep does: job,
lease and cluster ids come from class-level counters that earlier tests
in the same process would have advanced.  Regenerate only for an
intended change to control-plane behaviour::

    PYTHONPATH=src python -m tests.test_controlplane_order_golden
"""

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
          / "controlplane_order.json")
SCENARIOS = ("ControlPlane1000", "SpotChurn500")
SEEDS = (0, 1)
CASES = [f"{name}/{seed}" for name in SCENARIOS for seed in SEEDS]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str, seed: int) -> dict:
    """Run the full-size scenario ``name`` at ``seed``; digest it."""
    scenario = getattr(scenarios, name)(seed)
    scenario.run()
    sim = scenario.tb.sim
    log = eventlog_of(sim)
    segments = {cname: cloud.meter._closed
                for cname, cloud in sorted(scenario.tb.clouds.items())}
    rows = [(j.name, j.started_at, j.finished_at) for j in scenario.jobs]
    return {
        "eventlog": _sha(log.to_jsonl()),
        "segments": _sha(json.dumps(segments)),
        "jobs": _sha(json.dumps(rows)),
        "seq": sim._seq,
        "counts": {"events": len(log),
                   "segments": sum(len(s) for s in segments.values()),
                   "now": sim.now},
    }


def fresh_digests(case: str) -> dict:
    """:func:`digests` of ``"Scenario/seed"`` in a new interpreter."""
    name, seed = case.split("/")
    code = ("import json\n"
            "from tests.test_controlplane_order_golden import digests\n"
            f"print(json.dumps(digests({name!r}, {int(seed)})))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", CASES)
def test_controlplane_orders_match_golden(case):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    got = fresh_digests(case)
    assert got["counts"] == want["counts"]
    assert got["seq"] == want["seq"]
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {case: fresh_digests(case) for case in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
