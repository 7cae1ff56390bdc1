"""Compare two full-set results of the end-to-end benchmark.

    python benchmarks/e2e/compare_runs.py A.json B.json

For every (workload, end-to-end metric) row it prints both medians with
their quartiles and a verdict, with B judged against A:

* ``ok`` -- B is within the metric's bound (from ``BENCHMARK.json``);
* ``worse`` -- B is worse than A by more than the bound;
* ``unresolved`` -- a side's quartile spread is wider than the bound,
  so the medians cannot tell, unless every run of one side beats every
  run of the other.

``failed_frac`` may not increase, and every exact per-layer counter and
every simulated output must match.  Exit status: 0 all ok, 1 something
worse or changed, 2 unresolved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

#: Units of wall-clock readings; per-layer metrics in any other unit are
#: exact counters.
TIMED_UNITS = ("s", "x")
EXIT = {"ok": 0, "worse": 1, "changed": 1, "unresolved": 2}


def load_bounds(path: Path = BENCHMARK) -> dict:
    doc = json.loads(path.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in doc["end_to_end"]}


def verdict(a: dict, b: dict, bound: float, better: str = "lower") -> tuple:
    """(relative change of B's median, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    change = b["median"] / a["median"] - 1.0
    worse = sign * change > bound
    if max(_iqr(a), _iqr(b)) > bound:
        separated = (max(a["values"]) < min(b["values"])
                     or max(b["values"]) < min(a["values"]))
        if not separated:
            return change, "unresolved"
    return change, "worse" if worse else "ok"


def _iqr(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["median"]


def compare(a: dict, b: dict, bounds: dict) -> list:
    """Rows ``(workload, metric, text, verdict)`` of B against A."""
    rows = []
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for name in wa["e2e"]:
            ma, mb = wa["e2e"][name], wb["e2e"][name]
            bound, better = bounds[name]
            change, v = verdict(ma, mb, bound, better)
            rows.append((w, name, f"{_fmt(ma)}  {_fmt(mb)}  "
                         f"{change:+7.1%}  ±{bound:.0%}", v))
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        rows.append((w, "failed_frac", f"{fa:.4g} -> {fb:.4g}",
                     "worse" if fb > fa else "ok"))
        for name, ma in wa["per_layer"].items():
            mb = wb["per_layer"].get(name)
            if ma["unit"] in TIMED_UNITS:
                continue
            if mb is None or mb["value"] != ma["value"]:
                got = None if mb is None else mb["value"]
                rows.append((w, name, f"{ma['value']!r} -> {got!r}",
                             "changed"))
        if a["seed"] == b["seed"] and wa["outputs"] != wb["outputs"]:
            rows.append((w, "outputs", "simulated outputs differ",
                         "changed"))
    return rows


def overall(rows: list) -> str:
    verdicts = {v for *_, v in rows}
    for v in ("worse", "changed", "unresolved"):
        if v in verdicts:
            return v
    return "ok"


def _fmt(m: dict) -> str:
    return (f"{m['median']:9.4g} [{m['q1']:.4g}, {m['q3']:.4g}] "
            f"n={m['n']:<2}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, load_bounds())
    print(f"A = {argv[0]}\nB = {argv[1]}")
    print(f"{'workload':<18} {'metric':<34} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'change':>7}  bound  verdict")
    for w, name, text, v in rows:
        print(f"{w:<18} {name:<34} {text}  {v}")
    result = overall(rows)
    print(f"verdict: {result}")
    return EXIT[result]


if __name__ == "__main__":
    sys.exit(main())
