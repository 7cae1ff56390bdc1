"""The perf-regression gate: exit codes, tolerances, scale matching."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def _payload(events_per_sec=3e6, scale="full"):
    return {
        "meta": {"schema": "repro.bench-meta/1", "scale": scale,
                 "python": "3.12.0", "platform": "linux-x",
                 "implementation": "cpython", "git_sha": "abc123def456"},
        "headline": {
            "calendar_events_per_sec": events_per_sec,
            "speedup_calendar_vs_heap": 4.0,
        },
        "scenarios": {
            "drain": {"calendar": {"events": 50_000},
                      "heap": {"events": 50_000}},
            "cancel": {"calendar": {"events": 12_000}},
        },
    }


@pytest.fixture
def gate_dirs(tmp_path):
    artifacts = tmp_path / "artifacts"
    baselines = tmp_path / "baselines"
    artifacts.mkdir()
    baselines.mkdir()

    def write(directory, name, doc):
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")

    return artifacts, baselines, write


def _run(artifacts, baselines, *extra):
    return compare.main(["kernel", "--artifacts", str(artifacts),
                         "--baselines", str(baselines), *extra])


def test_matching_baseline_passes(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(artifacts, "BENCH_kernel.json", _payload())
    write(baselines, "BENCH_kernel.json", _payload())
    assert _run(artifacts, baselines) == 0
    assert "Overall: **ok**" in capsys.readouterr().out


def test_throughput_regression_fails(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(baselines, "BENCH_kernel.json", _payload(events_per_sec=3e6))
    write(artifacts, "BENCH_kernel.json", _payload(events_per_sec=1e6))
    assert _run(artifacts, baselines) == 1
    assert "FAIL" in capsys.readouterr().out


def test_small_drift_warns_but_passes(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(baselines, "BENCH_kernel.json", _payload(events_per_sec=3e6))
    # -30% is past the 25% warn tolerance but inside the 60% fail one.
    write(artifacts, "BENCH_kernel.json", _payload(events_per_sec=2.1e6))
    assert _run(artifacts, baselines) == 0
    assert "warn" in capsys.readouterr().out


def test_exact_metric_mismatch_fails(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(baselines, "BENCH_kernel.json", _payload())
    drifted = _payload()
    drifted["scenarios"]["drain"]["calendar"]["events"] = 49_999
    write(artifacts, "BENCH_kernel.json", drifted)
    assert _run(artifacts, baselines) == 1
    assert "determinism contract" in capsys.readouterr().out


def test_injected_regression_trips_the_gate(gate_dirs):
    artifacts, baselines, write = gate_dirs
    write(artifacts, "BENCH_kernel.json", _payload())
    write(baselines, "BENCH_kernel.json", _payload())
    assert _run(artifacts, baselines, "--inject",
                "kernel:headline.calendar_events_per_sec:0.3") == 1
    # ...and an injection that misses its target is itself a failure.
    assert _run(artifacts, baselines, "--inject",
                "kernel:headline.no_such_metric:0.3") == 1


def test_missing_artifact_or_baseline_skips(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    assert _run(artifacts, baselines) == 0  # bench not run: skip, not fail
    write(artifacts, "BENCH_kernel.json", _payload())
    assert _run(artifacts, baselines) == 0  # no baseline committed yet
    out = capsys.readouterr().out
    assert "skip" in out


def test_scale_mismatch_is_skipped_not_compared(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(artifacts, "BENCH_kernel.json",
          _payload(events_per_sec=1e5, scale="ci"))
    write(baselines, "BENCH_kernel.json", _payload(events_per_sec=3e6))
    assert _run(artifacts, baselines) == 0
    assert "scale" in capsys.readouterr().out


def test_scaled_baseline_preferred(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(artifacts, "BENCH_kernel.json",
          _payload(events_per_sec=1e5, scale="ci"))
    write(baselines, "BENCH_kernel.json", _payload(events_per_sec=3e6))
    write(baselines, "BENCH_kernel.ci.json",
          _payload(events_per_sec=1e5, scale="ci"))
    assert _run(artifacts, baselines) == 0
    assert "BENCH_kernel.ci.json" in capsys.readouterr().out


def test_unknown_artifact_name_is_usage_error(tmp_path):
    assert compare.main(["nonsense", "--artifacts", str(tmp_path),
                         "--baselines", str(tmp_path)]) == 2


def test_report_file_written(gate_dirs, tmp_path):
    artifacts, baselines, write = gate_dirs
    write(artifacts, "BENCH_kernel.json", _payload())
    write(baselines, "BENCH_kernel.json", _payload())
    report = tmp_path / "perf_report.md"
    assert _run(artifacts, baselines, "--report", str(report)) == 0
    text = report.read_text(encoding="utf-8")
    assert text.startswith("# Perf trend report")
    assert "`headline.calendar_events_per_sec`" in text


def test_env_drift_is_noted(gate_dirs, capsys):
    artifacts, baselines, write = gate_dirs
    write(artifacts, "BENCH_kernel.json", _payload())
    base = _payload()
    base["meta"]["python"] = "3.10.0"
    write(baselines, "BENCH_kernel.json", base)
    assert _run(artifacts, baselines) == 0
    assert "environment drift" in capsys.readouterr().out
