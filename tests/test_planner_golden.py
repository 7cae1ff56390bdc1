"""Golden placements of the communication-aware planner (paper §III-C).

``golden/planner_e8.json`` holds, per case, the planner's inputs — VM
names, the traffic matrix as ``[src, dst, bytes]`` in recording order,
the cloud capacities, ``refine_passes`` — and the cloud
``CommunicationAwarePlanner().plan`` gave each VM, in VM order:

* ``e8_block_2`` / ``e8_block_3``: the E8 block pattern detected by the
  sniffer on ``bench_autonomic.build(2)`` and ``build(3)``, 16 slots
  per cloud;
* ``prop_*``: seeded matrices shaped like the hypothesis strategy of
  ``test_properties_planner.py``, on tight and on roomy clouds;
* ``mid_*``: larger seeded matrices (12-40 VMs).

Every case is planned twice: with refinement, and with
``refine_passes=0``, which exposes the Kernighan–Lin bisection itself.
Only cases whose placement is the same under ``PYTHONHASHSEED`` 0–3
are pinned.  Regenerate only for an intended planning change::

    PYTHONPATH=src python -m tests.test_planner_golden
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.autonomic import CommunicationAwarePlanner
from repro.patterns import TrafficMatrix

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "planner_e8.json"


def plan_case(case):
    """The planner's placement of ``case``, one cloud per VM."""
    matrix = TrafficMatrix()
    for src, dst, nbytes in case["pairs"]:
        matrix.record(src, dst, nbytes)
    planner = CommunicationAwarePlanner(refine_passes=case["refine_passes"])
    assignment = planner.plan(case["vms"], matrix, case["clouds"])
    return [assignment[vm] for vm in case["vms"]]


def test_planner_matches_golden():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    names = [case["name"] for case in cases]
    assert {"e8_block_2", "e8_block_3"} <= set(names)
    for case in cases:
        assert plan_case(case) == case["assignment"], case["name"]


# -- regeneration ------------------------------------------------------------

def _e8_cases():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_autonomic as e8

    out = []
    for n_clouds in (2, 3):
        tb, cluster = e8.build(n_clouds)
        matrix = e8.detect_matrix(tb, cluster, "block")
        out.append({
            "name": f"e8_block_{n_clouds}",
            "vms": [vm.name for vm in cluster.vms],
            "pairs": [[s, d, v] for (s, d), v in matrix.pairs().items()],
            "clouds": {name: 16 for name in tb.clouds},
        })
    return out


def _pairs(rng, vms, n_edges):
    n = len(vms)
    out = []
    for _ in range(n_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            out.append([vms[i], vms[j], rng.uniform(1, 1e9)])
    return out


def _seeded_cases():
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        vms = [f"vm{i}" for i in range(n)]
        pairs = _pairs(rng, vms, rng.randint(0, n * (n - 1)))
        k = rng.randint(2, 4)
        cap = max(1, (n + k - 1) // k + 1)
        for label, clouds in (("tight", {f"c{i}": cap for i in range(k)}),
                              ("roomy", {"a": n, "b": n})):
            out.append({"name": f"prop_{seed}_{label}", "vms": vms,
                        "pairs": pairs, "clouds": clouds})
    for seed in range(12):
        rng = random.Random(1000 + seed)
        n = rng.randint(12, 40)
        vms = [f"vm{i}" for i in range(n)]
        k = rng.randint(2, 4)
        out.append({"name": f"mid_{seed}", "vms": vms,
                    "pairs": _pairs(rng, vms, 5 * n),
                    "clouds": {f"c{i}": (n + k - 1) // k for i in range(k)}})
    return out


def _with_refinement_variants(cases):
    out = []
    for case in cases:
        out.append({**case, "refine_passes": None})
        out.append({**case, "name": case["name"] + "_kl",
                    "refine_passes": 0})
    return out


def _plans_under_hash_seed(cases, hash_seed):
    code = ("import json, sys\n"
            "from tests.test_planner_golden import plan_case\n"
            "cases = json.load(sys.stdin)\n"
            "print(json.dumps([plan_case(c) for c in cases]))\n")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          input=json.dumps(cases), capture_output=True,
                          text=True, check=True, timeout=300)
    return json.loads(done.stdout)


if __name__ == "__main__":
    candidates = _with_refinement_variants(_e8_cases() + _seeded_cases())
    runs = [_plans_under_hash_seed(candidates, s) for s in range(4)]
    pinned, dropped = [], []
    for i, case in enumerate(candidates):
        plans = [run[i] for run in runs]
        if all(p == plans[0] for p in plans):
            pinned.append({**case, "assignment": plans[0]})
        else:
            dropped.append(case["name"])
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(c) for c in pinned) + "\n]\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(pinned)} cases pinned, "
          f"{len(dropped)} hash-seed dependent left out: {dropped}")
