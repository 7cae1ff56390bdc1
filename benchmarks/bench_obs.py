"""Watchtower overhead: instruments, labels, tracing, windowed queries.

Two questions, answered with numbers in ``BENCH_obs.json``:

1. What does observability *cost* the hot paths?  Counter increments
   flat vs. labeled (the labeled path pays a name canonicalization +
   registry lookup per call site), and span creation against a real
   tracer vs. the zero-cost ``NULL_TRACER``.
2. Is the windowed percentile really O(log n) per observation?  An
   operation-count harness feeds comparison-instrumented floats
   through a :class:`~repro.obs.windows.TimeWindow` trimmed to the
   last ``WINDOW`` time units (one sample per unit) and proves the
   answers are *identical* to naive full-sort percentiles while the
   per-observation comparison count stays logarithmic in the window,
   not linear in the history.
"""

import math
import time

from repro.metrics import MetricsRecorder
from repro.obs import NULL_TRACER, Tracer
from repro.obs.windows import TimeWindow, _interpolated_percentile
from repro.simkernel import Simulator

from _meta import merge_payload
from _tables import fmt, print_table


N_OPS = 50_000
WINDOW = 512
STREAM = 4096


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
        f"WATCHTOWER OVERHEAD ({N_OPS} ops each)",
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


# -- windowed percentile: exactness + O(log n) work ----------------------


class CountingFloat(float):
    """A float that counts order comparisons — the currency of both
    ``bisect.insort`` and ``sorted``."""

    comparisons = 0

    def __lt__(self, other):
        CountingFloat.comparisons += 1
        return float.__lt__(self, other)

    def __gt__(self, other):
        CountingFloat.comparisons += 1
        return float.__gt__(self, other)

    def __le__(self, other):
        CountingFloat.comparisons += 1
        return float.__le__(self, other)

    def __ge__(self, other):
        CountingFloat.comparisons += 1
        return float.__ge__(self, other)


def run_opcount_harness():
    # Deterministic pseudo-random stream (LCG; no RNG dependency).
    seed = 0x2545F491
    values = []
    for _ in range(STREAM):
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2**64
        values.append(CountingFloat((seed >> 11) / 2**53))

    win = TimeWindow()
    per_observe = []
    mismatches = 0
    naive_comparisons = 0
    queries = 0
    for i, v in enumerate(values):
        # Sample i arrives at time i; the trim keeps the last WINDOW
        # samples.  Both calls together are one observation's work.
        before = CountingFloat.comparisons
        win.observe(float(i), v)
        win.trim(float(i + 1 - WINDOW))
        per_observe.append(CountingFloat.comparisons - before)
        if i % 64 == 63:
            # Windowed answer vs. the naive full-sort of the same tail.
            streaming = win.percentile(99.0)
            before = CountingFloat.comparisons
            tail = sorted(values[max(0, i + 1 - WINDOW):i + 1])
            naive_comparisons += CountingFloat.comparisons - before
            naive = _interpolated_percentile(tail, 99.0)
            queries += 1
            if streaming != naive:
                mismatches += 1
    return {
        "per_observe": per_observe,
        "mismatches": mismatches,
        "queries": queries,
        "naive_comparisons_per_query": naive_comparisons / queries,
    }


def test_windowed_percentile_exact_with_logn_work(benchmark):
    result = benchmark.pedantic(run_opcount_harness, rounds=1, iterations=1)

    # Identical answers to full sort, at every checkpoint.
    assert result["queries"] == STREAM // 64
    assert result["mismatches"] == 0

    # O(log n) work per observation: insort bisection plus (once the
    # window is full) the eviction's bisect_left — comfortably within
    # 2*log2(window) + slack, and nowhere near O(n).
    bound = 2 * math.log2(WINDOW) + 8
    worst = max(result["per_observe"])
    mean = sum(result["per_observe"]) / len(result["per_observe"])
    assert worst <= bound, (worst, bound)
    assert result["naive_comparisons_per_query"] > 10 * worst

    print_table(
        f"WINDOWED P99 ({STREAM} observations, window {WINDOW})",
        ["metric", "value"],
        [("comparisons/observe (mean)", fmt(mean, 2)),
         ("comparisons/observe (worst)", worst),
         ("O(log n) bound", fmt(bound, 1)),
         ("naive sort comparisons/query",
          fmt(result["naive_comparisons_per_query"], 0)),
         ("answer mismatches vs full sort", result["mismatches"])],
    )
    _merge_payload("windowed_percentile", {
        "stream": STREAM,
        "window": WINDOW,
        "comparisons_per_observe_mean": mean,
        "comparisons_per_observe_worst": worst,
        "logn_bound": bound,
        "naive_comparisons_per_query":
            result["naive_comparisons_per_query"],
        "mismatches": result["mismatches"],
    })
