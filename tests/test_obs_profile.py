"""Kernel self-profiling: site attribution, purity, health snapshots,
flame export, and the speedscope validator."""

import functools
import json

import pytest

from repro.metrics import MetricsRecorder
from repro.obs import (
    CallbackProfiler,
    NULL_PROFILER,
    Tracer,
    critical_path,
    kernel_stats,
    profiler_of,
    spans_to_collapsed,
    to_speedscope,
    validate_speedscope,
)
from repro.simkernel import Simulator
from repro.simkernel.events import URGENT


def _tick(_ev):
    pass


def _tock(_ev):
    pass


# -- site attribution ----------------------------------------------------


def test_sites_attribute_counts_per_callback():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)
    for t in (1.0, 2.0, 3.0):
        sim.call_in(t, _tick)
    sim.call_in(4.0, _tock)
    sim.run()

    snap = prof.snapshot()
    by_site = {s.site: s for s in snap.sites}
    tick = by_site[f"{__name__}:_tick"]
    tock = by_site[f"{__name__}:_tock"]
    assert tick.count == 3
    assert tock.count == 1
    assert snap.events == 4
    assert all(s.wall >= 0.0 for s in snap.sites)


def test_site_names_unwrap_partials_methods_and_callables():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)

    class Widget:
        def poke(self, _ev, flavor=None):
            pass

        def __call__(self, _ev):
            pass

    w = Widget()
    sim.call_in(1.0, w.poke)
    sim.call_in(2.0, functools.partial(w.poke, flavor="x"))
    sim.call_in(3.0, w)
    sim.run()

    sites = {s.site for s in prof.snapshot().sites}
    qual = f"{__name__}:{Widget.poke.__qualname__}"
    assert qual in sites
    assert f"{__name__}:{Widget.__call__.__qualname__}" in sites


def test_same_callback_runs_merge_into_one_site():
    # The run-length fold must not double-count: 500 consecutive
    # dispatches of one closure are still 500 events at one site.
    prof = CallbackProfiler()
    sim = Simulator(queue="calendar", profiler=prof)
    for _ in range(500):
        sim.call_in(1.0, _tick)
    sim.run()

    snap = prof.snapshot()
    assert [s.count for s in snap.sites if s.site.endswith("_tick")] == [500]


def test_by_subsystem_and_format():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)
    sim.call_in(1.0, _tick)
    sim.run()
    snap = prof.snapshot()
    totals = snap.by_subsystem()
    assert sum(totals.values()) == pytest.approx(snap.wall_total)
    text = snap.format(top=3)
    assert "_tick" in text and "kernel" in text


# -- purity: profiling never touches simulated time ----------------------


def _traced_scenario(profiler=None):
    sim = Simulator(queue="calendar", profiler=profiler)
    tracer = Tracer(sim).install()
    timeline = []

    def work(sim, name, delay):
        with tracer.start(name):
            yield sim.timeout(delay)
            timeline.append((sim.now, name))
            yield sim.timeout(delay)

    with tracer.start("root"):
        for i in range(20):
            sim.process(work(sim, f"job-{i}", 0.5 + 0.25 * i))
    sim.run()
    return timeline, tracer.to_jsonl()


def test_profiler_does_not_shift_the_timeline():
    bare_timeline, bare_spans = _traced_scenario()
    prof_timeline, prof_spans = _traced_scenario(CallbackProfiler())
    assert prof_timeline == bare_timeline
    # Byte-identical span logs: the profiler reads only the wall clock.
    assert prof_spans == bare_spans


def test_enable_disable_reset():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)
    assert prof.enabled is True
    sim.call_in(1.0, _tick)
    sim.run()
    assert prof.snapshot().events == 1

    prof.disable()
    assert prof.enabled is False
    sim.call_in(1.0, _tick)
    sim.run()
    assert prof.snapshot().events == 1  # nothing recorded while off

    # enable() and reset() both drop any run-length fold state.
    prof._last_cb, prof._run_count, prof._last_t = _tock, 3, 1.0
    prof.enable()
    assert prof.enabled is True
    assert (prof._last_cb, prof._run_count, prof._last_t) == (None, 0, 0.0)
    sim.call_in(1.0, _tick)
    sim.run()
    assert prof.snapshot().events == 2

    prof._last_cb, prof._run_count, prof._last_t = _tock, 3, 1.0
    prof.reset()
    assert (prof._last_cb, prof._run_count, prof._last_t) == (None, 0, 0.0)
    snap = prof.snapshot()
    assert snap.events == 0 and snap.batches == 0
    assert snap.sites == [] and snap.kernel_wall == 0.0


def test_install_requires_a_simulator():
    with pytest.raises(ValueError):
        CallbackProfiler().install()


# -- the null path -------------------------------------------------------


def test_null_profiler_is_default_and_inert():
    sim = Simulator()
    assert sim.profiler is NULL_PROFILER
    assert profiler_of(sim) is NULL_PROFILER
    assert NULL_PROFILER.snapshot() is None
    NULL_PROFILER.reset()  # no-op, must not raise
    assert not NULL_PROFILER._enabled
    # The shared singleton never captures a simulator (slotted class).
    assert NULL_PROFILER.sim is None
    prof = CallbackProfiler(sim)
    assert sim.profiler is prof
    sim.set_profiler(None)
    assert sim.profiler is NULL_PROFILER
    assert NULL_PROFILER.sim is None


def test_null_path_reads_one_attribute_per_batch_and_none_per_event():
    reads = [0]

    class Spy:
        sim = None

        @property
        def _enabled(self):
            reads[0] += 1
            return False

        def __getattr__(self, name):
            raise AssertionError(
                f"null path touched profiler attribute {name!r}")

    sim = Simulator(profiler=Spy())
    for t in range(1, 11):
        for _ in range(50):  # 50-event batches: still one read per batch
            sim.call_in(float(t), _tick)
    sim.run()
    assert reads[0] == sim._n_batches
    assert sim._n_events >= 500


# -- batch and preemption accounting -------------------------------------


def test_batch_histogram_buckets_by_size():
    prof = CallbackProfiler()
    sim = Simulator(queue="calendar", profiler=prof)
    for _ in range(8):
        sim.call_in(1.0, _tick)   # one batch of 8
    sim.call_in(2.0, _tock)       # one batch of 1
    sim.run()

    snap = prof.snapshot()
    assert snap.batches == 2
    assert snap.batch_hist.get(1) == 1    # the singleton batch
    assert snap.batch_hist.get(8) == 1    # 8.bit_length()=4 -> bound 2^3
    assert sum(snap.batch_hist.values()) == snap.batches


def test_preemption_accounting_counts_repushed_entries():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)

    def preempting(_ev):
        # Lands at the current instant with URGENT priority: the rest
        # of the running batch must be re-pushed behind it.
        urgent = sim.event()
        urgent._ok = True
        urgent._value = None
        urgent.callbacks.append(_tock)
        sim.schedule(urgent, priority=URGENT)

    sim.call_in(1.0, preempting)  # FIFO within the instant: runs first
    for _ in range(3):
        sim.call_in(1.0, _tick)
    sim.run()

    snap = prof.snapshot()
    assert snap.preemptions == 1
    assert snap.preempted_entries == 3  # the three ticks were re-pushed
    assert snap.events == 5  # preempting + urgent + 3 re-pushed ticks


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_profiler_counts_events_like_the_kernel(queue):
    # The profiler's event count follows the kernel's rule: an event
    # with no callbacks is still one dispatched event, and an event
    # with two callbacks is one event but two site invocations.
    prof = CallbackProfiler()
    sim = Simulator(queue=queue, profiler=prof)
    before = kernel_stats(sim).events_dispatched
    sim.timeout(1.0)                        # zero callbacks
    sim.timeout(1.5)                        # zero callbacks
    both = sim.timeout(2.0)
    both.callbacks.extend([_tick, _tock])   # two callbacks
    sim.call_in(3.0, _tick)
    sim.run()

    snap = prof.snapshot()
    dispatched = kernel_stats(sim).events_dispatched - before
    assert dispatched == 4
    assert snap.events == dispatched
    by_site = {s.site.rsplit(":", 1)[1]: s.count for s in snap.sites}
    assert by_site == {"_tick": 2, "_tock": 1}


# -- obs tax -------------------------------------------------------------


def test_tap_obs_meters_tracer_and_metrics_and_untaps():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)
    tracer = Tracer(sim)
    metrics = MetricsRecorder(sim)
    prof.tap_obs(tracer=tracer, metrics=metrics)

    with tracer.start("outer"):
        with tracer.span("inner"):
            metrics.record("x", 1.0)
    metrics.record("x", 2.0)

    snap = prof.snapshot()
    assert snap.obs_taps["trace:Tracer.start"]["count"] == 2
    assert snap.obs_taps["metrics:MetricsRecorder.record"]["count"] == 2
    assert snap.obs_tax > 0.0
    assert snap.obs_tax == pytest.approx(
        sum(t["wall_s"] for t in snap.obs_taps.values()))

    prof.untap_obs()
    metrics.record("x", 3.0)
    with tracer.start("after"):
        pass
    after = prof.snapshot()
    assert after.obs_taps["metrics:MetricsRecorder.record"]["count"] == 2
    assert after.obs_taps["trace:Tracer.start"]["count"] == 2


# -- kernel health -------------------------------------------------------


def test_kernel_stats_heap_counters():
    sim = Simulator()
    for t in range(1, 6):
        for _ in range(4):
            sim.call_in(float(t), _tick)
    sim.run()
    ks = kernel_stats(sim)
    assert ks.backend == "heap"
    assert ks.events_dispatched >= 20
    assert ks.batches_dispatched >= 5
    assert ks.max_batch >= 4
    assert ks.queue_depth == 0 and ks.dead_ratio == 0.0
    assert ks.bucket_width is None
    doc = ks.to_dict()
    assert "bucket_width" not in doc


def test_kernel_stats_calendar_shape():
    sim = Simulator(queue="calendar")
    events = [sim.call_in(float(t), _tick) for t in range(1, 51)]
    for ev in events[:10]:
        ev.deschedule()
    ks = kernel_stats(sim)
    assert ks.backend == "calendar"
    assert ks.bucket_width is not None and ks.buckets >= 1
    assert ks.dead_entries == 10
    assert 0.0 < ks.dead_ratio < 1.0
    doc = ks.to_dict()
    assert doc["bucket_width"] == ks.bucket_width
    assert doc["buckets"] == ks.buckets


# -- flame export --------------------------------------------------------


def test_to_collapsed_lines_are_sorted_and_parse():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)
    sim.call_in(1.0, _tick)
    sim.call_in(2.0, _tock)
    sim.run()
    text = prof.snapshot().to_collapsed()
    lines = text.splitlines()
    assert lines == sorted(lines)
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack.startswith("sim;")
        assert int(weight) >= 0
    assert any("_tick" in line for line in lines)


def test_spans_to_collapsed_self_time_excludes_children():
    sim = Simulator()
    tracer = Tracer(sim)

    def scenario(sim):
        with tracer.start("parent") as parent:
            yield sim.timeout(10.0)
            with tracer.start("child", parent=parent):
                yield sim.timeout(4.0)

    sim.process(scenario(sim))
    sim.run()
    text = spans_to_collapsed(tracer.spans)
    totals = {}
    for line in text.splitlines():
        stack, _, weight = line.rpartition(" ")
        totals[stack] = int(weight)
    assert totals["sim;parent"] == 10_000_000     # 14s minus the child
    assert totals["sim;parent;child"] == 4_000_000


def test_critical_path_to_collapsed_tiles_the_root():
    sim = Simulator()
    tracer = Tracer(sim)

    def scenario(sim):
        with tracer.start("root") as root:
            with tracer.start("a", parent=root):
                yield sim.timeout(3.0)
            with tracer.start("b", parent=root):
                yield sim.timeout(7.0)

    sim.process(scenario(sim))
    sim.run()
    report = critical_path(tracer.spans)
    text = report.to_collapsed()
    total_us = sum(int(line.rpartition(" ")[2])
                   for line in text.splitlines())
    assert total_us == 10_000_000  # segments tile the root exactly


# -- speedscope ----------------------------------------------------------


def _profiled_traced_run():
    prof = CallbackProfiler()
    sim = Simulator(profiler=prof)
    tracer = Tracer(sim)

    def scenario(sim):
        with tracer.start("root") as root:
            with tracer.start("stage", parent=root):
                yield sim.timeout(2.0)

    sim.process(scenario(sim))
    sim.run()
    return prof, tracer


def test_to_speedscope_merges_both_views_and_validates():
    prof, tracer = _profiled_traced_run()
    doc = validate_speedscope(to_speedscope(profiler=prof, tracer=tracer))
    kinds = [p["type"] for p in doc["profiles"]]
    assert kinds == ["sampled", "evented"]
    assert doc["$schema"].startswith("https://www.speedscope.app/")
    names = {f["name"] for f in doc["shared"]["frames"]}
    assert "root" in names and "stage" in names
    # round-trips through JSON
    validate_speedscope(json.loads(json.dumps(doc)))


def test_to_speedscope_single_view_and_empty():
    prof, tracer = _profiled_traced_run()
    only_wall = to_speedscope(profiler=prof)
    assert [p["type"] for p in only_wall["profiles"]] == ["sampled"]
    only_sim = to_speedscope(tracer=tracer)
    assert [p["type"] for p in only_sim["profiles"]] == ["evented"]
    with pytest.raises(ValueError):
        to_speedscope()  # nothing to export
    with pytest.raises(ValueError):
        to_speedscope(profiler=CallbackProfiler())  # no samples yet


def test_validate_speedscope_rejects_malformed_documents():
    prof, tracer = _profiled_traced_run()
    good = to_speedscope(profiler=prof, tracer=tracer)

    def broken(mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            validate_speedscope(doc)

    broken(lambda d: d.pop("$schema"))
    broken(lambda d: d["shared"].update(frames=[]))
    broken(lambda d: d["shared"]["frames"].append({"label": "unnamed"}))
    broken(lambda d: d["profiles"][0]["samples"][0].append(10_000))
    broken(lambda d: d["profiles"][0]["weights"].pop())
    broken(lambda d: d["profiles"][1].update(type="mystery"))
    broken(lambda d: d["profiles"][1]["events"].pop())     # unbalanced
    broken(lambda d: d["profiles"][1]["events"][0].update(at=1e18))
    broken(lambda d: d["profiles"][1]["events"][0].update(type="X"))
    broken(lambda d: d["profiles"][0].update(endValue=-1, startValue=0))
