"""Observability: causal tracing, typed instruments, trace exporters.

The package sits between the simkernel and every instrumented subsystem:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span` on the
  simulation clock, with a zero-cost :data:`NULL_TRACER` default;
* :mod:`repro.obs.instruments` — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` (exposed through
  :class:`~repro.metrics.MetricsRecorder` factories);
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON and
  structured JSONL span logs;
* :mod:`repro.obs.critical_path` — offline dominant-chain analysis
  with per-phase time attribution;
* :mod:`repro.obs.profile` — kernel self-profiling
  (:class:`CallbackProfiler`), kernel-health snapshots
  (:func:`kernel_stats`) and flame export (collapsed stacks,
  speedscope JSON).

Quick use::

    from repro.obs import Tracer, critical_path

    tracer = Tracer(sim).install()      # instrumentation finds it
    ...                                  # run the scenario
    tracer.dump_chrome_trace("trace.json")   # open in ui.perfetto.dev
    print(critical_path(tracer).format(key="phase"))
"""

from .critical_path import CriticalPathReport, Segment, critical_path
from .dashboard import dashboard_payload, dump_dashboard, render_html
from .export import (
    dump_chrome_trace,
    dump_jsonl,
    span_to_dict,
    spans_to_jsonl,
    to_chrome_trace,
)
from .profile import (
    CallbackProfiler,
    KernelStats,
    NULL_PROFILER,
    ProfileSnapshot,
    SiteStat,
    dump_speedscope,
    install_kernel_gauges,
    kernel_stats,
    profiler_of,
    spans_to_collapsed,
    to_speedscope,
    validate_speedscope,
)
from .instruments import (
    Counter,
    Gauge,
    Histogram,
    Timer,
    labeled_name,
)
from .query import ExplainReport, alert_window, explain, explain_all
from .rollup import SeriesStats, health_rollups, rollup, series_stats
from .slo import Alert, AlertState, BurnRatePolicy, Objective, SLOEngine
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    tracer_of,
)
from .windows import CounterWindow, TimeWindow

__all__ = [
    "Alert",
    "AlertState",
    "BurnRatePolicy",
    "CallbackProfiler",
    "Counter",
    "CounterWindow",
    "CriticalPathReport",
    "ExplainReport",
    "Gauge",
    "Histogram",
    "KernelStats",
    "NULL_PROFILER",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Objective",
    "ProfileSnapshot",
    "Segment",
    "SiteStat",
    "SeriesStats",
    "SLOEngine",
    "Span",
    "SpanContext",
    "TimeWindow",
    "Timer",
    "Tracer",
    "alert_window",
    "critical_path",
    "explain",
    "explain_all",
    "dashboard_payload",
    "dump_chrome_trace",
    "dump_dashboard",
    "dump_jsonl",
    "dump_speedscope",
    "health_rollups",
    "install_kernel_gauges",
    "kernel_stats",
    "labeled_name",
    "profiler_of",
    "render_html",
    "rollup",
    "series_stats",
    "span_to_dict",
    "spans_to_collapsed",
    "spans_to_jsonl",
    "to_chrome_trace",
    "to_speedscope",
    "tracer_of",
    "validate_speedscope",
]
