"""Continuous perf-regression gate: current BENCH_* vs committed baselines.

Every bench emits a ``BENCH_<name>.json`` artifact at the repo root
(stamped by ``_meta.py`` with git sha, interpreter, platform and
scale).  This tool compares those artifacts against the baselines
committed under ``benchmarks/baselines/`` and renders a markdown trend
report.  Exit status is the gate: ``0`` clean (warnings allowed),
``1`` at least one hard regression, ``2`` usage/IO error.

Per metric the spec names a dotted path into the payload, a direction,
and warn/fail tolerances:

``higher``
    Throughput-style: warn when the current value drops below
    ``baseline * (1 - warn)``, fail below ``baseline * (1 - fail)``.
    Tolerances are deliberately generous (25-60%) because bench walls
    on shared CI hosts jitter far more than real regressions need to —
    the gate exists to catch the 2x cliffs, not 5% drift.
``lower``
    Wall-clock/overhead-ratio style, mirrored upward.
``abs-lower``
    Small quantities near zero (overhead percentages) where a ratio is
    meaningless: warn/fail on the *absolute increase* over baseline.
``exact``
    Determinism contracts (event counts, final clocks): any difference
    is an immediate failure, no tolerance — these move only when the
    kernel's semantics move, which is exactly what must not slip in
    unnoticed.

Baselines are per scale: ``baselines/BENCH_<name>.<scale>.json`` is
tried first (scale from the current artifact's meta), then the
unsuffixed name with a matching ``meta.scale``.  A baseline recorded
at a different scale is never compared — the artifact is skipped with
a warning, because cross-scale deltas are configuration, not
performance.

Self-test hook: ``--inject name:dotted.path:factor`` multiplies one
numeric in a *current* payload after loading, letting CI prove the
gate actually fails on a synthetic regression (see the ``perf-gate``
job).

Usage::

    python benchmarks/compare.py                  # all known artifacts
    python benchmarks/compare.py kernel profile   # a subset
    python benchmarks/compare.py --report perf_report.md
    python benchmarks/compare.py --inject kernel:headline.calendar_events_per_sec:0.3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINES = HERE / "baselines"

#: metric spec: (dotted path, kind, warn tolerance, fail tolerance).
#: kinds: higher | lower | abs-lower | exact  (see module docstring).
METRICS = {
    "kernel": [
        ("headline.calendar_events_per_sec", "higher", 0.25, 0.60),
        ("headline.speedup_calendar_vs_heap", "higher", 0.30, 0.60),
        ("scenarios.drain.calendar.events", "exact", 0, 0),
        ("scenarios.drain.heap.events", "exact", 0, 0),
        ("scenarios.cancel.calendar.events", "exact", 0, 0),
    ],
    "profile": [
        ("headline.overhead_null_pct", "abs-lower", 0.05, 0.15),
        ("headline.overhead_enabled_pct", "abs-lower", 0.10, 0.30),
        ("headline.enabled_events_per_sec", "higher", 0.30, 0.60),
        ("backends.calendar.events", "exact", 0, 0),
        ("backends.heap.events", "exact", 0, 0),
    ],
    "flows": [
        ("speedup", "higher", 0.30, 0.60),
        # Raw wall on a bench with no ci scale: the baseline may come
        # from a different host, so only a cliff fails (drift is noted
        # in the report via the meta block).
        ("wall_incremental_s", "lower", 1.00, 3.00),
        ("n_flows", "exact", 0, 0),
        ("churn_events", "exact", 0, 0),
        ("peak_concurrent", "exact", 0, 0),
    ],
    "eventlog": [
        ("append.appends_per_sec", "higher", 0.30, 0.60),
        ("append.events", "exact", 0, 0),
        ("replay.events_per_sec", "higher", 0.30, 0.60),
        ("replay.jobs", "exact", 0, 0),
        ("snapshot.round_trip_events_per_sec", "higher", 0.30, 0.60),
    ],
    "obs": [
        ("overhead.traced_over_null", "lower", 0.50, 1.00),
        ("overhead.labeled_over_flat", "lower", 0.50, 1.00),
    ],
}

STATUS_ORDER = {"ok": 0, "skip": 1, "warn": 2, "FAIL": 3}


def lookup(doc: dict, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def inject(doc: dict, path: str, factor: float) -> bool:
    """Multiply the numeric at ``path`` in-place (the self-test hook)."""
    parts = path.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or not isinstance(node.get(leaf),
                                                    (int, float)):
        return False
    node[leaf] = node[leaf] * factor
    return True


def load_baseline(name: str, scale: str, baselines: Path):
    """The committed baseline for (artifact, scale), or (None, reason)."""
    scaled = baselines / f"BENCH_{name}.{scale}.json"
    if scaled.exists():
        return json.loads(scaled.read_text(encoding="utf-8")), scaled
    plain = baselines / f"BENCH_{name}.json"
    if plain.exists():
        doc = json.loads(plain.read_text(encoding="utf-8"))
        base_scale = doc.get("meta", {}).get("scale")
        if base_scale in (None, scale):
            return doc, plain
        return None, (f"baseline {plain.name} is scale={base_scale!r}, "
                      f"current is {scale!r}")
    return None, f"no baseline for {name!r} at scale {scale!r}"


def compare_metric(path, kind, warn, fail, base, cur):
    """One row: (status, detail)."""
    if cur is None:
        return "skip", "missing in current artifact"
    if base is None:
        return "skip", "missing in baseline"
    if kind == "exact":
        if cur != base:
            return "FAIL", f"determinism contract: {base!r} -> {cur!r}"
        return "ok", "exact match"
    if not isinstance(base, (int, float)) or not isinstance(cur,
                                                            (int, float)):
        return "skip", "non-numeric"
    if kind == "abs-lower":
        delta = cur - base
        detail = f"{base:+.4g} -> {cur:+.4g} ({delta:+.4g})"
        if delta > fail:
            return "FAIL", detail
        if delta > warn:
            return "warn", detail
        return "ok", detail
    if base == 0:
        return "skip", "zero baseline"
    ratio = cur / base
    detail = f"{base:.6g} -> {cur:.6g} ({ratio - 1:+.1%})"
    if kind == "higher":
        if ratio < 1 - fail:
            return "FAIL", detail
        if ratio < 1 - warn:
            return "warn", detail
    elif kind == "lower":
        if ratio > 1 + fail:
            return "FAIL", detail
        if ratio > 1 + warn:
            return "warn", detail
    else:
        return "skip", f"unknown kind {kind!r}"
    return "ok", detail


def compare_artifact(name, artifacts: Path, baselines: Path,
                     injections) -> dict:
    """All metric rows for one artifact, plus meta context."""
    current_path = artifacts / f"BENCH_{name}.json"
    result = {"name": name, "rows": [], "notes": [], "status": "ok"}
    if not current_path.exists():
        result["status"] = "skip"
        result["notes"].append(f"no current artifact {current_path.name} "
                               "(bench not run)")
        return result
    current = json.loads(current_path.read_text(encoding="utf-8"))
    for spec_name, path, factor in injections:
        if spec_name == name:
            if not inject(current, path, factor):
                result["status"] = "FAIL"
                result["notes"].append(
                    f"--inject target {path!r} not found/numeric")
                return result
            result["notes"].append(
                f"injected synthetic regression: {path} x{factor}")
    meta = current.get("meta", {})
    scale = meta.get("scale", "full")
    baseline, where = load_baseline(name, scale, baselines)
    if baseline is None:
        result["status"] = "skip"
        result["notes"].append(str(where))
        return result
    base_meta = baseline.get("meta", {})
    for key in ("python", "platform", "implementation"):
        if (key in meta and key in base_meta
                and meta[key] != base_meta[key]):
            result["notes"].append(
                f"{key} differs from baseline "
                f"({base_meta[key]} -> {meta[key]}): wall-clock deltas "
                "include environment drift")
    if base_meta.get("git_sha"):
        result["notes"].append(f"baseline {Path(where).name} @ "
                               f"{base_meta['git_sha'][:12]}")
    for path, kind, warn, fail in METRICS[name]:
        status, detail = compare_metric(
            path, kind, warn, fail,
            lookup(baseline, path), lookup(current, path))
        result["rows"].append(
            {"metric": path, "kind": kind, "status": status,
             "detail": detail})
        if STATUS_ORDER[status] > STATUS_ORDER[result["status"]]:
            result["status"] = status
    return result


def render_report(results, out_path=None) -> str:
    lines = ["# Perf trend report", ""]
    worst = "ok"
    for r in results:
        if STATUS_ORDER[r["status"]] > STATUS_ORDER[worst]:
            worst = r["status"]
    lines.append(f"Overall: **{worst}**")
    lines.append("")
    for r in results:
        lines.append(f"## {r['name']} — {r['status']}")
        lines.append("")
        for note in r["notes"]:
            lines.append(f"- _{note}_")
        if r["notes"]:
            lines.append("")
        if r["rows"]:
            lines.append("| metric | kind | status | baseline -> current |")
            lines.append("|---|---|---|---|")
            for row in r["rows"]:
                lines.append(f"| `{row['metric']}` | {row['kind']} | "
                             f"{row['status']} | {row['detail']} |")
            lines.append("")
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text


def parse_injection(spec: str):
    try:
        name, path, factor = spec.rsplit(":", 2)
        return name, path, float(factor)
    except ValueError:
        raise SystemExit(
            f"--inject expects name:dotted.path:factor, got {spec!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare BENCH_* artifacts against committed baselines")
    parser.add_argument("names", nargs="*", default=[],
                        help="artifact names (default: all known)")
    parser.add_argument("--artifacts", type=Path, default=ROOT,
                        help="directory holding current BENCH_*.json")
    parser.add_argument("--baselines", type=Path, default=BASELINES)
    parser.add_argument("--report", type=Path, default=None,
                        help="write the markdown trend report here")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="NAME:PATH:FACTOR",
                        help="multiply a current metric (gate self-test)")
    args = parser.parse_args(argv)

    names = args.names or sorted(METRICS)
    unknown = [n for n in names if n not in METRICS]
    if unknown:
        print(f"unknown artifact(s): {unknown}; known: {sorted(METRICS)}",
              file=sys.stderr)
        return 2
    injections = [parse_injection(spec) for spec in args.inject]

    try:
        results = [compare_artifact(n, args.artifacts, args.baselines,
                                    injections)
                   for n in names]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading artifacts: {exc}", file=sys.stderr)
        return 2

    report = render_report(results, args.report)
    print(report, end="")
    if any(r["status"] == "FAIL" for r in results):
        print("PERF GATE: FAIL", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
