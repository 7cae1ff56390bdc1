"""Unit tests for the typed instruments and their recorder integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricsRecorder
from repro.obs import Counter, Gauge, Histogram
from repro.simkernel import Simulator


def test_counter_accumulates_and_rejects_negative():
    c = Counter("reqs")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 3.5


def test_gauge_set_inc_dec():
    g = Gauge("depth")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12


def test_histogram_summary_statistics():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 10.0
    assert h.mean() == pytest.approx(2.5)
    assert h.minimum() == 1.0
    assert h.maximum() == 4.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 4.0
    assert h.percentile(50) == pytest.approx(2.5)
    assert h.percentile(25) == pytest.approx(1.75)


def test_histogram_percentile_errors():
    h = Histogram("lat")
    with pytest.raises(ValueError):
        h.percentile(50)  # empty
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_recorder_counter_streams_into_series():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    c = rec.counter("flows.started")

    def work():
        c.inc()
        yield sim.timeout(1.0)
        c.inc(2)

    sim.process(work())
    sim.run()
    series = rec.series("flows.started")
    assert series.samples == [(0.0, 1.0), (1.0, 3.0)]


def test_recorder_gauge_and_histogram_stream():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    g = rec.gauge("depth")
    h = rec.histogram("lat")
    g.set(4)
    g.dec()
    h.observe(0.25)
    assert rec.series("depth").samples == [(0.0, 4.0), (0.0, 3.0)]
    assert rec.series("lat").samples == [(0.0, 0.25)]
    assert h.percentile(50) == 0.25


def test_recorder_instrument_factories_are_cached():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    assert rec.counter("x") is rec.counter("x")


def test_recorder_rejects_kind_mismatch():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    rec.counter("x")
    with pytest.raises(TypeError, match="already a Counter"):
        rec.gauge("x")


# -- labels and timer failures ----------------------------------------


def test_labeled_name_roundtrip():
    from repro.obs import labeled_name

    name = labeled_name("queue.wait", {"tenant": "acme", "cloud": "eu"})
    assert name == "queue.wait{cloud=eu,tenant=acme}"
    ts = MetricsRecorder(Simulator()).series(
        "queue.wait", labels={"tenant": "acme", "cloud": "eu"})
    assert (ts.name, ts.base, ts.labels) == (
        name, "queue.wait", {"cloud": "eu", "tenant": "acme"})
    assert labeled_name("plain", None) == "plain"
    with pytest.raises(ValueError):
        labeled_name(name, {"more": 1})  # double-labeling


def test_histogram_percentile_uses_sorted_shadow():
    # Percentiles stay exact under interleaved observe/percentile.
    import random

    from repro.obs.instruments import _interpolated_percentile

    rng = random.Random(3)
    h = Histogram("lat")
    data = []
    for _ in range(200):
        v = rng.random()
        h.observe(v)
        data.append(v)
        assert h.percentile(90) == \
            _interpolated_percentile(sorted(data), 90)


def test_timer_records_failure_to_separate_series():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("op")

    def work():
        with timer.time(sim):
            yield sim.timeout(2.0)
        try:
            with timer.time(sim):
                yield sim.timeout(3.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass

    sim.process(work())
    sim.run()
    # Success histogram holds only the clean duration...
    assert timer.count == 1
    assert rec.series("op").values() == [2.0]
    # ...the failed duration went to the companion series.
    assert rec.series("op.failed").values() == [3.0]


def test_timer_explicit_stop_inside_block_not_double_counted():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("op")

    def work():
        with timer.time(sim) as running:
            yield sim.timeout(1.0)
            running.stop()
            yield sim.timeout(5.0)  # after stop(): not timed

    sim.process(work())
    sim.run()
    assert timer.count == 1
    assert rec.series("op").values() == [1.0]


def test_timer_fail_records_to_the_failed_series_only():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("op")

    def work():
        with timer.time(sim) as running:
            yield sim.timeout(2.0)
            running.fail()  # a failed outcome that does not raise
            yield sim.timeout(5.0)  # after fail(): not timed

    sim.process(work())
    sim.run()
    assert timer.count == 0
    assert rec.get("op") is None
    assert rec.series("op.failed").values() == [2.0]


def test_timer_exception_propagates():
    sim = Simulator()
    timer = Histogram("h")  # sanity: context managers never swallow
    t = MetricsRecorder(sim).timer("op")
    with pytest.raises(RuntimeError):
        with t.time(sim):
            raise RuntimeError("boom")
    assert timer.count == 0


# -- labels are data on the series; names are rendered injectively -----


def test_label_values_with_structural_chars_roundtrip():
    from repro.obs import labeled_name

    hostile = {
        "query": "a=b,c=d",
        "path": "x{y}z",
        "slash": "a\\b",
        "plain": "ok",
        "number": 7,
    }
    rec = MetricsRecorder(Simulator())
    rec.counter("op", labels=hostile).inc()
    (name,) = rec.names()
    ts = rec.get(name)
    assert ts.base == "op"
    assert ts.labels == {k: str(v) for k, v in hostile.items()}
    # Sets that differ only in where the structural characters sit
    # must never share a name (and so never share a series).
    variants = [
        hostile,
        {"query": "a", "path": "x{y}z", "slash": "a\\b", "plain": "ok",
         "number": 7},
        {"a": "b,c=d"},          # unescaped, both read "op{a=b,c=d}"
        {"a": "b", "c": "d"},
        {"a": "x\\", "b": "y"},
        {"a": "x\\,b=y"},
        {"query": "x{y}z"},
        {"query": "x{y", "z": "}"},
    ]
    names = {labeled_name("op", labels) for labels in variants}
    assert len(names) == len(variants)


def test_label_value_with_equals_no_longer_corrupts_neighbors():
    from repro.obs import labeled_name

    # Unescaped, "v=1,extra" would read as two labels.
    rec = MetricsRecorder(Simulator())
    rec.gauge("m", labels={"a": "v=1,extra", "b": "2"}).set(1)
    rec.gauge("m", labels={"a": "v=1", "b": "2"}).set(2)
    assert [rec.get(n).labels for n in rec.names()] == [
        {"a": "v=1", "b": "2"}, {"a": "v=1,extra", "b": "2"}]
    assert (labeled_name("m", {"a": "v=1,extra", "b": "2"})
            != labeled_name("m", {"a": "v=1", "extra": "", "b": "2"}))


def test_label_keys_reject_structural_chars():
    from repro.obs import labeled_name

    for bad in ("a=b", "a,b", "a}b", "a{b", "a\\b", ""):
        with pytest.raises(ValueError):
            labeled_name("m", {bad: "v"})


_KEYS = st.text(alphabet="abcxyz_.", min_size=1, max_size=3)
_VALUES = st.one_of(st.text(alphabet="ab\\,={} ", max_size=4),
                    st.integers(-2, 2), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _VALUES, max_size=3),
       st.dictionaries(_KEYS, _VALUES, max_size=3))
def test_labeled_name_is_injective(a, b):
    from repro.obs import labeled_name

    def strs(labels):
        return {k: str(v) for k, v in labels.items()}

    assert ((labeled_name("m", a) == labeled_name("m", b))
            == (strs(a) == strs(b)))


def test_handles_resolve_by_rendered_label_values():
    rec = MetricsRecorder(Simulator())
    # Equal as dict keys, different as names: never one handle.
    one = rec.counter("n", labels={"v": 1})
    true = rec.counter("n", labels={"v": True})
    assert one is not true
    # Different objects, same rendering: one handle, one series.
    assert rec.counter("n", labels={"v": "1"}) is one
    one.inc()
    true.inc(2)
    assert {n: rec.get(n).last() for n in rec.names()} == {
        "n{v=1}": 1.0, "n{v=True}": 2.0}


def test_idle_labeled_handle_exports_nothing():
    rec = MetricsRecorder(Simulator())
    counter = rec.counter("idle", labels={"tenant": "a"})
    rec.timer("op", labels={"tenant": "a"})
    assert rec.names() == []
    counter.inc()
    (name,) = rec.names()
    assert name == "idle{tenant=a}"
    assert rec.get(name).labels == {"tenant": "a"}


def test_timer_failure_series_keeps_labels():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("op", labels={"k": "a,b"})
    with pytest.raises(RuntimeError):
        with timer.time(sim):
            raise RuntimeError("boom")
    (name,) = rec.names()
    failed = rec.get(name)
    assert (failed.name, failed.base, failed.labels) == (
        "op.failed{k=a\\,b}", "op.failed", {"k": "a,b"})
    assert failed.values() == [0.0]
    assert timer.count == 0


def test_histogram_statistics_read_the_one_recorded_series():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    hist = rec.histogram("lat", labels={"cloud": "c0"})
    for v in (3.0, 1.0, 2.0):
        hist.observe(v)
    ts = rec.get("lat{cloud=c0}")
    assert ts.values() == [3.0, 1.0, 2.0]
    assert (hist.count, hist.sum, hist.minimum(), hist.maximum(),
            hist.percentile(50)) == (3, 6.0, 1.0, 3.0, 2.0)
    # The histogram describes what its series retains: ring-bounding
    # the series evicts 3.0 and 1.0 at the fourth sample.
    rec.series("lat", max_points=2, labels={"cloud": "c0"})
    for v in (9.0, 8.0):
        hist.observe(v)
    assert ts.values() == [2.0, 9.0, 8.0]
    assert (hist.count, hist.minimum(), hist.maximum()) == (3, 2.0, 9.0)
