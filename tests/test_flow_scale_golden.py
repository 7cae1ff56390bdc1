"""Golden flow completions of the full ``sky_blast_512`` run.

``golden/flow_scale.json`` holds, per seed (0 and 1), the SHA-256 of
every completed flow of the full-size ``SkyBlast`` scenario
(``benchmarks/e2e/scenarios.py``: a 512-VM chain+CoW cluster on four
clouds, then a 2048-batch BLAST job) as a
:class:`~repro.network.flows.FlowRecord` row ``[src, dst, size,
started_at, finished_at, tag]`` in completion order, next to the row
count, the billed bytes per site pair, the number of events the kernel
dispatched and the final kernel sequence number.

The benchmark pins only totals (makespan, provisioning time, WAN
bytes); this pins when every one of its flows finished.  Its
contextualization bursts are the same-instant processor-sharing
cascades the flow scheduler arms lazily, 128 flows wide, which the
smoke size (32 VMs) never reaches.

Each seed runs in a fresh interpreter, as a benchmark rep does: VM and
flow ids come from class-level counters that earlier tests in the same
process would have advanced.  Regenerate only for an intended change to
the flow model::

    PYTHONPATH=src python -m tests.test_flow_scale_golden
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import kernel_stats

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios", ROOT / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)

GOLDEN = Path(__file__).resolve().parent / "golden" / "flow_scale.json"
SEEDS = (0, 1)


def digests(seed: int) -> dict:
    """Run the full-size SkyBlast at ``seed``; digest its completions."""
    scenario = scenarios.SkyBlast(seed)
    rows = []
    scenario.tb.scheduler.taps.append(lambda r: rows.append(
        [r.src, r.dst, r.size, r.started_at, r.finished_at, r.tag]))
    scenario.run()
    sim = scenario.tb.sim
    return {
        "records": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "n_records": len(rows),
        "pair_bytes": {f"{src}->{dst}": nbytes for (src, dst), nbytes
                       in sorted(scenario.tb.billing.pair_bytes.items())},
        "events_dispatched": kernel_stats(sim).events_dispatched,
        "seq": sim._seq,
    }


def fresh_digests(seed: int) -> dict:
    """:func:`digests` in a new interpreter."""
    code = ("import json\n"
            "from tests.test_flow_scale_golden import digests\n"
            f"print(json.dumps(digests({seed})))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(done.stdout)


@pytest.mark.parametrize("seed", SEEDS)
def test_scale_completions_match_golden(seed):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[str(seed)]
    got = json.loads(json.dumps(fresh_digests(seed)))
    assert got["n_records"] == want["n_records"]
    assert got["events_dispatched"] == want["events_dispatched"]
    assert got["seq"] == want["seq"]
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {str(seed): fresh_digests(seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
