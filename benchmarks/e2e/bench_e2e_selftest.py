"""Self-test of the end-to-end benchmark, at smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import cProfile
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare_runs
import run
from layers import PER_LAYER, Fold

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _single(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_follow_the_grammar():
    from scenarios import SCENARIOS

    assert list(SCENARIOS) == list(run.WORKLOADS)
    names = ([n for n, _, _ in run.E2E] + [n for n, _, _ in PER_LAYER]
             + list(run.WORKLOADS))
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc = _result(_single("shrinker_wan_16", trace))
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
        listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        emitted = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert emitted == listed


def test_runner_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _single("shrinker_wan_16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _results(wall=1.0, batches=100) -> dict:
    def e2e(median):
        values = [median * (1 + 0.004 * (i - 5)) for i in range(11)]
        return {"unit": "s", **run.spread(values)}

    return {"seed": 0, "workloads": {"sky_blast_512": {
        "e2e": {"wall_s": e2e(wall), "setup_s": e2e(0.4),
                "peak_rss_mb": {**e2e(60.0), "unit": "MiB"}},
        "failed_frac": 0.0,
        "outputs": {"makespan": 336.1},
        "per_layer": {"simkernel.batches": {"value": batches,
                                            "unit": "count"},
                      "network.self_s": {"value": wall / 3, "unit": "s"}},
    }}}


def test_comparator_flags_a_slowdown_and_a_changed_counter():
    bounds = compare_runs.load_bounds()
    base = _results()
    assert compare_runs.overall(compare_runs.compare(base, base,
                                                     bounds)) == "ok"
    rows = compare_runs.compare(base, _results(wall=1.3), bounds)
    verdicts = {(name, v) for _, name, _, v in rows}
    assert ("wall_s", "worse") in verdicts
    assert compare_runs.overall(rows) == "worse"
    rows = compare_runs.compare(base, _results(batches=101), bounds)
    assert ("simkernel.batches", "changed") in {(n, v) for _, n, _, v in rows}
    assert compare_runs.overall(rows) == "changed"


def test_fold_charges_numpy_called_from_shrinker_to_shrinker():
    from repro.shrinker import ContentRegistry
    from traced import REPRO_DIR

    rng = np.random.default_rng(0)
    registry = ContentRegistry("dst")
    registry.add(rng.integers(0, 2**62, 200_000, dtype=np.uint64))
    queries = [rng.integers(0, 2**62, 50_000, dtype=np.uint64)
               for _ in range(10)]
    profile = cProfile.Profile()
    profile.enable()
    for q in queries:
        registry.contains(q)
    profile.disable()
    profile.create_stats()
    layers = Fold(profile.stats, REPRO_DIR).by_layer()
    foreign = sum(tt for (filename, _, _), (_, _, tt, _, _)
                  in profile.stats.items() if "/repro/" not in filename)
    assert foreign > 0.5 * sum(layers.values())  # NumPy did the work...
    assert layers["shrinker"] > 0.95 * sum(layers.values())  # ...for shrinker


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_outputs_identical_on_heap_and_calendar(workload):
    heap = run.run_child(workload, 0, smoke=True, queue="heap")
    calendar = run.run_child(workload, 0, smoke=True, queue="calendar")
    assert heap["problems"] == [] and calendar["problems"] == []
    assert heap["outputs"] == calendar["outputs"]
