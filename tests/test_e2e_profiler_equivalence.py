"""Profiler and tracer on/off equivalence on the paper's e2e scenarios.

Each scenario of ``benchmarks/e2e/scenarios.py`` runs at smoke size,
seed 1, once bare and once with a :class:`CallbackProfiler` attached for
the run phase.  Profiling reads only the wall clock, so the simulated
outputs must be identical; and the profiler must count dispatched events
exactly as the kernel does.  The traced workload (``spot_churn_500``)
also runs with its tracer replaced by ``NULL_TRACER``: tracing records
spans only, so the outputs and every metric sample must not move.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.obs import NULL_TRACER, CallbackProfiler, kernel_stats

_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios",
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)


def _run(name, profiled):
    scenario = scenarios.SCENARIOS[name](1, smoke=True)
    sim = scenario.tb.sim
    before = kernel_stats(sim).events_dispatched
    prof = CallbackProfiler(sim) if profiled else None
    scenario.run()
    dispatched = kernel_stats(sim).events_dispatched - before
    return scenario.outputs(), dispatched, prof


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_outputs_identical_with_profiler_on_and_off(name):
    bare, bare_events, _ = _run(name, profiled=False)
    profiled, events, prof = _run(name, profiled=True)
    assert profiled == bare
    assert events == bare_events
    assert prof.snapshot().events == events


def test_spot_churn_outputs_identical_with_tracing_on_and_off(monkeypatch):
    # spot_churn_500 is the one traced workload; rebuilt with no Tracer,
    # its plane runs on NULL_TRACER.
    traced = scenarios.SpotChurn500(1, smoke=True)
    traced.run()
    monkeypatch.setattr(scenarios, "Tracer", lambda sim: None)
    bare = scenarios.SpotChurn500(1, smoke=True)
    assert bare.plane.tracer is NULL_TRACER
    bare.run()
    assert traced.tracer.stats()["started"] > 0
    # The full schedule digest, makespan, plane summary (spot outcomes
    # and enrolment included) and cost: SpotChurn500.outputs() minus
    # its span count, which is what tracing adds.
    assert (scenarios.ControlPlane1000.outputs(bare)
            == scenarios.ControlPlane1000.outputs(traced))
    assert bare.plane.metrics.as_dict() == traced.plane.metrics.as_dict()
