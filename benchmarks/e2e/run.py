"""End-to-end benchmark of the paper's experiments.

Runs the four paper workloads (see ``README.md``) one rep at a time, each
rep in a fresh child interpreter (``child.py``), and reports wall time,
set-up time and peak RSS per workload, plus per-layer attribution from a
traced rep.  Every rep checks the simulated outputs.

Full set (11 interleaved reps of every workload, then one traced rep
each)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--out FILE]

One workload, for a fixed measuring time (the last line of standard
output is one JSON object)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("sky_blast_512", "shrinker_wan_16", "controlplane_1000",
             "spot_churn_500")
#: (name, unit, better) of the end-to-end metrics, medians over reps.
E2E = (("wall_s", "s", "lower"),
       ("setup_s", "s", "lower"),
       ("peak_rss_mb", "MiB", "lower"))
#: Reps of every workload in a full set.
REPS = 11
#: A timed run measures at least this many reps.
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run (not: a workload misbehaved)."""


def run_child(workload: str, seed: int, trace: bool = False,
              smoke: bool = False, queue=None) -> dict:
    """One rep in a fresh interpreter; returns the child's report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    if queue is not None:
        cmd += ["--queue", queue]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} rep exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    """Median, quartiles and count of ``values``."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def summarize(reps: list) -> dict:
    """Correctness of a workload's reps: op counts, problems, and
    whether every rep produced the same simulated outputs."""
    problems = sorted({p for r in reps for p in r["problems"]})
    outputs = [json.dumps(r.get("outputs"), sort_keys=True) for r in reps]
    if len(set(outputs)) > 1:
        problems.append("simulated outputs differ between reps")
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if problems and not failed:
        failed = attempted
    return {"attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "problems": problems, "outputs": reps[0].get("outputs")}


def e2e_metrics(reps: list) -> dict:
    """Spreads over the reps that got far enough to measure (a rep that
    raised reports no times; its run is already marked incorrect)."""
    return {name: {"unit": unit,
                   **spread([r[name] for r in reps if name in r] or [0.0])}
            for name, unit, _ in E2E}


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    values = dict(traced.get("per_layer", {}))
    if "wall_s" in traced and untraced_wall:
        values["trace.overhead_x"] = traced["wall_s"] / untraced_wall
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit, _ in PER_LAYER}


def timed_reps(workload: str, seed: int, seconds: float,
               smoke: bool) -> list:
    """Reps back to back for about ``seconds``: stop once the next rep
    would end more than half a rep late (at least :data:`MIN_REPS`)."""
    start = time.monotonic()
    reps = []
    while True:
        reps.append(run_child(workload, seed, smoke=smoke))
        elapsed = time.monotonic() - start
        if (len(reps) >= MIN_REPS
                and elapsed * (len(reps) + 0.5) / len(reps) > seconds):
            return reps


def print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        if "median" in m:
            print(f"  {name:<36} {m['median']:>14.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
        else:
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")


def single(args) -> dict:
    """One workload for the measuring time, reported as one JSON line."""
    if args.trace:
        base = run_child(args.workload, args.seed, smoke=args.smoke)
        traced = run_child(args.workload, args.seed, trace=True,
                           smoke=args.smoke)
        reps = [base, traced]
        full = layer_metrics(traced, base.get("wall_s"))
    else:
        reps = timed_reps(args.workload, args.seed, args.seconds, args.smoke)
        full = e2e_metrics(reps)
    verdict = summarize(reps)
    print_metrics(f"{args.workload} seed {args.seed}", full)
    for problem in verdict["problems"]:
        print(f"  PROBLEM: {problem}")
    metrics = {name: {"value": m.get("median", m.get("value")),
                      "unit": m["unit"]} for name, m in full.items()}
    return {"correct": not verdict["problems"],
            "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": metrics}


def full_set(args) -> dict:
    """Interleaved reps of every workload, then one traced rep each."""
    reps = {w: [] for w in WORKLOADS}
    for round_no in range(REPS):
        order = WORKLOADS if round_no % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            reps[w].append(run_child(w, args.seed, smoke=args.smoke))
        print(f"round {round_no + 1}/{REPS} done", file=sys.stderr)
    doc = {"schema": "repro.bench_e2e/1", "seed": args.seed,
           "reps": REPS, "smoke": args.smoke,
           "host": {"python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
           "workloads": {}}
    artifacts = {}
    for w in WORKLOADS:
        traced = run_child(w, args.seed, trace=True, smoke=args.smoke)
        e2e = e2e_metrics(reps[w])
        verdict = summarize(reps[w] + [traced])
        doc["workloads"][w] = {
            "e2e": e2e, **verdict,
            "per_layer": layer_metrics(traced, e2e["wall_s"]["median"]),
        }
        artifacts[w] = traced.get("artifacts", {})
        print_metrics(f"{w} ({REPS} reps, seed {args.seed})",
                      {**e2e, "failed_frac": {"value": verdict["failed_frac"],
                                              "unit": "ratio"}})
        print_metrics(f"{w} per layer (traced rep)",
                      doc["workloads"][w]["per_layer"])
        for problem in verdict["problems"]:
            print(f"  PROBLEM: {problem}")
    write_artifacts(Path(args.trace_dir), doc, artifacts)
    return doc


def write_artifacts(out: Path, doc: dict, artifacts: dict) -> None:
    """``layers.json`` plus, per workload, its collapsed layer stacks
    and its 20 hottest functions."""
    out.mkdir(parents=True, exist_ok=True)
    layers = {w: {name: m["value"] for name, m in d["per_layer"].items()
                  if name.endswith(".self_s") or name.startswith("trace.")}
              for w, d in doc["workloads"].items()}
    (out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
    for w, art in artifacts.items():
        (out / f"{w}.collapsed").write_text(art.get("collapsed", ""))
        (out / f"{w}.top20.json").write_text(
            json.dumps(art.get("top", []), indent=1) + "\n")


def repin(args) -> None:
    """Rewrite ``expected.json`` from one seed-0 rep of every workload."""
    pinned = {}
    for w in WORKLOADS:
        rep = run_child(w, 0)
        if rep.get("outputs") is None:
            raise BenchError(f"{w} produced no outputs: {rep['problems']}")
        pinned[w] = rep["outputs"]
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: the full set)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (0 = outputs pinned, 1 = held out)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time of a --workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: report the per-layer metrics")
    ap.add_argument("--out", default=str(HERE / "out" / "results.json"),
                    help="full set: write the results JSON here")
    ap.add_argument("--trace-dir", default=str(HERE / "out" / "trace"),
                    help="full set: write layers.json, collapsed layer "
                         "stacks and top-20 functions here")
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for the self-test")
    ap.add_argument("--repin", action="store_true",
                    help="rewrite expected.json from seed-0 outputs")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.repin:
            repin(args)
        elif args.workload:
            print(json.dumps(single(args)))
        else:
            doc = full_set(args)
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
