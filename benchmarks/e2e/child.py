"""One rep of one workload, in a fresh interpreter.

The runner (``run.py``) starts this once per rep.  It times the set-up
phase (``import repro`` plus building the scenario) and the run phase
(first ``sim.run`` to result), checks the simulated outputs, and prints
one JSON object on its last line of standard output.

With ``--trace`` the run phase runs under cProfile and the callback
profiler, and the object also carries the per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--queue", default=None)
    args = ap.parse_args(argv)

    import scenarios  # imports repro: part of the set-up time

    doc = {"workload": args.workload, "seed": args.seed, "ops": 0,
           "failed": 0, "problems": []}
    try:
        scenario = scenarios.SCENARIOS[args.workload](
            args.seed, smoke=args.smoke, queue=args.queue)
        doc["ops"] = scenario.ops
        t1 = time.perf_counter()
        if args.trace:
            import traced
            probe = traced.Probe(scenario)
            with probe:
                scenario.run()
        else:
            scenario.run()
        t2 = time.perf_counter()
        doc.update(setup_s=t1 - T0, wall_s=t2 - t1)
        outputs = doc["outputs"] = scenario.outputs()
        unfinished = scenario.ops - scenario.completed()
        broken = scenario.problems() + pinned_misses(args, outputs)
        doc["problems"] = broken + (
            [f"{unfinished} of {scenario.ops} operations unfinished"]
            if unfinished else [])
        # A leak, a stranded instance or a missed pinned output makes
        # the whole rep suspect: all of its operations count as failed.
        doc["failed"] = scenario.ops if broken else unfinished
        if args.trace:
            doc["per_layer"] = probe.metrics()
            doc["artifacts"] = probe.artifacts()
    except Exception:
        doc["problems"].append(traceback.format_exc(limit=4))
        doc["failed"] = doc["ops"] = max(doc["ops"], 1)
    doc["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(doc))
    return 0


def pinned_misses(args, outputs: dict) -> list:
    """Differences from the outputs pinned for seed 0 (full size)."""
    if args.seed != 0 or args.smoke:
        return []
    expected = json.loads((HERE / "expected.json").read_text())
    want = expected.get(args.workload)
    got = json.loads(json.dumps(outputs))
    if want is None:
        return [f"no pinned outputs for {args.workload}"]
    return [f"output {key}: got {got.get(key)!r}, pinned {want[key]!r}"
            for key in sorted(set(want) | set(got))
            if got.get(key) != want.get(key)]


if __name__ == "__main__":
    sys.exit(main())
