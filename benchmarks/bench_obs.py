"""Observability overhead: instruments, labels, tracing.

What does observability *cost* the hot paths?  Answered with numbers in
``BENCH_obs.json``: counter increments flat vs. labeled (the labeled
path pays a name canonicalization + registry lookup per call site), and
span creation against a real tracer vs. the zero-cost ``NULL_TRACER``.
"""

import time

from repro.metrics import MetricsRecorder
from repro.obs import NULL_TRACER, Tracer
from repro.simkernel import Simulator

from _meta import merge_payload
from _tables import fmt, print_table


N_OPS = 50_000


def _merge_payload(section: str, data: dict) -> None:
    merge_payload("obs", section, data)


def _ns_per_op(fn, n: int) -> float:
    start = time.perf_counter()
    fn(n)
    return (time.perf_counter() - start) / n * 1e9


# -- instrument overhead -------------------------------------------------


def measure_counter_overhead():
    sim = Simulator()
    rec = MetricsRecorder(sim)

    flat = rec.counter("ops")

    def flat_inc(n):
        for _ in range(n):
            flat.inc()

    def labeled_inc(n):
        # The realistic call shape: the site re-resolves the labeled
        # instrument each event (labels vary by tenant at run time).
        for i in range(n):
            rec.counter("ops.labeled",
                        labels={"tenant": "acme", "cloud": "eu"}).inc()

    return {
        "flat_ns": _ns_per_op(flat_inc, N_OPS),
        "labeled_ns": _ns_per_op(labeled_inc, N_OPS),
    }


def measure_span_overhead():
    null_sim = Simulator()

    def null_spans(n):
        for _ in range(n):
            NULL_TRACER.start("op", phase="x").end()

    traced_sim = Simulator()
    tracer = Tracer(traced_sim).install()

    def traced_spans(n):
        for _ in range(n):
            tracer.start("op", phase="x").end()

    null_ns = _ns_per_op(null_spans, N_OPS)
    traced_ns = _ns_per_op(traced_spans, N_OPS)
    assert null_sim.now == traced_sim.now == 0.0
    return {"null_ns": null_ns, "traced_ns": traced_ns,
            "spans_recorded": len(tracer.spans)}


def test_instrument_overhead(benchmark):
    counters = benchmark.pedantic(measure_counter_overhead,
                                  rounds=3, iterations=1)
    spans = measure_span_overhead()
    ratio_labels = counters["labeled_ns"] / counters["flat_ns"]
    ratio_traced = spans["traced_ns"] / max(spans["null_ns"], 1e-9)

    print_table(
        f"OBSERVABILITY OVERHEAD ({N_OPS} ops each)",
        ["operation", "ns/op"],
        [("counter.inc (flat)", fmt(counters["flat_ns"], 0)),
         ("counter.inc (labeled, re-resolved)",
          fmt(counters["labeled_ns"], 0)),
         ("span start+end (NULL_TRACER)", fmt(spans["null_ns"], 0)),
         ("span start+end (recording)", fmt(spans["traced_ns"], 0))],
    )
    print(f"labeled/flat = {ratio_labels:.1f}x, "
          f"traced/null = {ratio_traced:.1f}x")

    # Sanity bounds, generous enough for slow CI runners: labels cost
    # a dict + format per call, not orders of magnitude.
    assert ratio_labels < 100.0
    _merge_payload("overhead", {
        "counter_flat_ns": counters["flat_ns"],
        "counter_labeled_ns": counters["labeled_ns"],
        "labeled_over_flat": ratio_labels,
        "span_null_ns": spans["null_ns"],
        "span_traced_ns": spans["traced_ns"],
        "traced_over_null": ratio_traced,
        "n_ops": N_OPS,
    })
