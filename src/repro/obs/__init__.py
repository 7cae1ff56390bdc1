"""Observability: causal tracing, typed instruments, trace exporters.

The package sits between the simkernel and every instrumented subsystem:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span` on the
  simulation clock, with a zero-cost :data:`NULL_TRACER` default;
* :mod:`repro.obs.instruments` — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`, :class:`Timer` (exposed through
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

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "critical_path": ("CriticalPathReport", "Segment", "critical_path"),
    "export": (
        "dump_chrome_trace", "dump_jsonl", "span_to_dict", "spans_to_jsonl",
        "to_chrome_trace",
    ),
    "profile": (
        "CallbackProfiler", "KernelStats", "NULL_PROFILER", "ProfileSnapshot",
        "SiteStat", "dump_speedscope", "kernel_stats", "profiler_of",
        "spans_to_collapsed", "to_speedscope", "validate_speedscope",
    ),
    "instruments": ("Counter", "Gauge", "Histogram", "Timer", "labeled_name"),
    "trace": (
        "NULL_SPAN", "NULL_TRACER", "NullTracer", "Span", "SpanContext",
        "Tracer", "tracer_of",
    ),
})
