"""Tests for the metrics/instrumentation module."""

import pytest

from repro.metrics import MetricsRecorder, TimeSeries
from repro.network import FlowScheduler, Site, Topology
from repro.simkernel import Simulator


def test_timeseries_basics():
    ts = TimeSeries("x")
    ts.record(0.0, 10)
    ts.record(1.0, 20)
    assert ts.times() == [0.0, 1.0]
    assert ts.values() == [10, 20]
    assert ts.last() == 20
    assert ts.mean() == 15
    assert ts.maximum() == 20
    assert len(ts) == 2


def test_timeseries_rejects_time_travel():
    ts = TimeSeries("x")
    ts.record(5.0, 1)
    with pytest.raises(ValueError):
        ts.record(4.0, 2)


def test_timeseries_empty_stats_raise():
    ts = TimeSeries("x")
    assert ts.last() is None
    with pytest.raises(ValueError):
        ts.mean()
    with pytest.raises(ValueError):
        ts.maximum()


def test_timeseries_integration():
    ts = TimeSeries("x")
    ts.record(0.0, 2.0)
    ts.record(3.0, 5.0)
    ts.record(4.0, 0.0)
    # 2*3 + 5*1 (last sample carries no width).
    assert ts.integrate() == pytest.approx(11.0)


def test_probe_samples_periodically():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    state = {"v": 0}

    def advance():
        state["v"] += 10
        return state["v"]

    metrics.probe("gauge", advance, interval=2.0)
    sim.run(until=7)
    assert metrics.series("gauge").values() == [10, 20, 30]
    assert metrics.series("gauge").times() == [2.0, 4.0, 6.0]


def test_probe_stop():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    probe = metrics.probe("g", lambda: 1, interval=1.0)

    def stopper(sim):
        yield sim.timeout(3.5)
        probe.stop()

    sim.process(stopper(sim))
    sim.run(until=10)
    assert len(metrics.series("g")) == 3


def test_probe_stop_deschedules_pending_timeout():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    probe = metrics.probe("g", lambda: 1, interval=1000.0)

    def stopper(sim):
        yield sim.timeout(0.5)
        probe.stop()

    sim.process(stopper(sim))
    sim.run()  # no `until`: runs until the event queue drains
    # Without descheduling, the probe's pending 1000 s timeout would
    # keep the simulation alive until t=1000.
    assert sim.now == pytest.approx(0.5)
    assert len(metrics.series("g")) == 0


def test_probe_stop_is_idempotent_and_safe_mid_sample():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    calls = []

    def sample():
        calls.append(sim.now)
        probe.stop()  # stop from within the sampling callback
        probe.stop()  # double stop must be harmless
        return 1

    probe = metrics.probe("g", sample, interval=2.0)
    sim.run(until=10)
    assert calls == [2.0]
    assert len(metrics.series("g")) == 1


def test_probe_interval_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        MetricsRecorder(sim).probe("g", lambda: 1, interval=0)


def test_recorder_record_and_export():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.record("events", 1)
    assert metrics.names() == ["events"]
    assert metrics.as_dict() == {"events": [(0.0, 1)]}
    csv = metrics.to_csv("events")
    assert csv == "time,value\n0.0,1\n"


def test_timeseries_percentile():
    ts = TimeSeries("x")
    for t, v in enumerate((4, 1, 3, 2)):
        ts.record(float(t), v)
    assert ts.percentile(0) == 1
    assert ts.percentile(100) == 4
    assert ts.percentile(50) == pytest.approx(2.5)
    assert ts.percentile(75) == pytest.approx(3.25)


def test_timeseries_percentile_errors():
    ts = TimeSeries("x")
    with pytest.raises(ValueError):
        ts.percentile(50)
    ts.record(0.0, 1)
    with pytest.raises(ValueError):
        ts.percentile(200)


def test_timeseries_rate():
    ts = TimeSeries("bytes")
    ts.record(0.0, 0.0)
    ts.record(2.0, 100.0)
    ts.record(4.0, 100.0)
    ts.record(5.0, 250.0)
    rate = ts.rate()
    assert rate.name == "bytes.rate"
    assert rate.samples == [(2.0, 50.0), (4.0, 0.0), (5.0, 150.0)]


def test_timeseries_rate_requires_monotonic_counter():
    ts = TimeSeries("c")
    ts.record(0.0, 10.0)
    ts.record(1.0, 5.0)
    with pytest.raises(ValueError, match="monotonically increasing"):
        ts.rate()


def test_csv_escapes_series_names_with_commas(tmp_path):
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.record('link:a,b', 1.0)
    metrics.record("plain", 2.0)
    path = tmp_path / "metrics.csv"
    metrics.dump_csv(path)
    text = path.read_text(encoding="utf-8")
    assert '"link:a,b"' in text  # RFC-4180 quoting, not a broken column
    import csv as csv_mod
    rows = list(csv_mod.reader(text.splitlines()))
    assert rows[0] == ["series", "time", "value"]
    assert ["link:a,b", "0.0", "1.0"] in rows
    assert ["plain", "0.0", "2.0"] in rows


def test_link_utilization_probe_tracks_flows():
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.0)
    sched = FlowScheduler(sim, topo)
    link = topo.path("a", "b")[0]
    metrics = MetricsRecorder(sim)
    metrics.probe("util", lambda: sum(f.rate for f in sched.active_flows
                                      if link in f.path) / link.bandwidth,
                  interval=0.5)
    metrics.probe("flows", lambda: len(sched.active_flows), interval=0.5)
    sched.start_flow("a", "b", 2e6)  # saturates for 2 s
    sim.run(until=4)
    util = metrics.series("util").values()
    # Fully utilized while the flow runs, idle afterwards.
    assert util[0] == pytest.approx(1.0)
    assert util[-1] == 0.0
    flows = metrics.series("flows").values()
    assert flows[0] == 1 and flows[-1] == 0


def test_doctest_in_metrics_module():
    import doctest

    import repro.metrics

    failures, _ = doctest.testmod(repro.metrics)
    assert failures == 0


# -- PR 5 satellites: CSV typo safety, probe restart, edge cases ---------


def test_to_csv_raises_on_unknown_series():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.record("real", 1.0)
    with pytest.raises(KeyError, match="no series named 'tpyo'"):
        metrics.to_csv("tpyo")
    assert metrics.names() == ["real"]  # no empty series minted


def test_dump_csv_raises_on_unknown_series_and_writes_nothing(tmp_path):
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.record("real", 1.0)
    path = tmp_path / "out.csv"
    with pytest.raises(KeyError):
        metrics.dump_csv(path, names=["real", "tpyo"])
    assert not path.exists() or path.read_text(encoding="utf-8") == ""
    assert metrics.names() == ["real"]


def test_recorder_get_never_creates():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    assert metrics.get("nope") is None
    assert metrics.names() == []
    metrics.record("yes", 1.0)
    assert metrics.get("yes") is metrics.series("yes")


def test_recorder_install_and_discovery():
    from repro.metrics import recorder_of

    sim = Simulator()
    assert recorder_of(sim) is None
    metrics = MetricsRecorder(sim).install()
    assert recorder_of(sim) is metrics


def test_probe_restart_after_stop():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    ticks = {"n": 0}

    def sample():
        ticks["n"] += 1
        return ticks["n"]

    probe = metrics.probe("ticks", sample, interval=1.0)

    def orchestrate():
        yield sim.timeout(2.5)   # samples at t=1, t=2
        probe.stop()
        probe.restart()          # re-arm immediately after stopping
        yield sim.timeout(2.0)   # samples resume at t=3.5, t=4.5

    sim.process(orchestrate())
    sim.run(until=5.0)
    times = metrics.series("ticks").times()
    assert times == [1.0, 2.0, 3.5, 4.5]
    # restart() while active is a no-op (no duplicate samplers).
    probe.restart()
    sim.run(until=6.0)
    assert metrics.series("ticks").times().count(5.5) == 1


def test_timeseries_rate_single_sample_is_empty():
    ts = TimeSeries("c")
    ts.record(1.0, 5.0)
    assert ts.rate().samples == []


def test_timeseries_rate_rejects_equal_timestamps():
    ts = TimeSeries("c")
    ts.record(1.0, 5.0)
    ts.record(1.0, 6.0)  # legal for series, illegal for rate()
    with pytest.raises(ValueError, match="distinct sample times"):
        ts.rate()


def test_timeseries_integrate_edge_cases():
    empty = TimeSeries("e")
    assert empty.integrate() == 0.0
    single = TimeSeries("s")
    single.record(3.0, 42.0)
    assert single.integrate() == 0.0  # no interval to integrate over
    step = TimeSeries("st")
    step.record(0.0, 2.0)
    step.record(4.0, 7.0)  # left-stepwise: value 2 holds for 4 s
    assert step.integrate() == 8.0


def test_recorder_labeled_factories_share_canonical_series():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    a = metrics.counter("spot.reclaims",
                        labels={"tenant": "acme", "cloud": "east"})
    b = metrics.counter("spot.reclaims",
                        labels={"cloud": "east", "tenant": "acme"})
    assert a is b  # key order canonicalized
    a.inc()
    assert metrics.get("spot.reclaims{cloud=east,tenant=acme}").last() == 1.0


# -- PR 10 satellite: ring-buffered series ------------------------------


def test_timeseries_max_points_bounds_growth():
    ts = TimeSeries("g", max_points=100)
    for i in range(1000):
        ts.record(float(i), float(i))
    # Chunked eviction: retained length stays within [max, 2*max).
    assert 100 <= len(ts.samples) < 200
    assert ts.total == 1000
    assert ts.dropped == 1000 - len(ts.samples)
    # The retained tail is the newest samples, contiguous.
    assert ts.samples[-1] == (999.0, 999.0)
    times = ts.times()
    assert times == sorted(times)
    assert times[0] == 1000.0 - len(ts.samples)


def test_timeseries_unbounded_by_default():
    ts = TimeSeries("g")
    for i in range(10):
        ts.record(float(i), 1.0)
    assert ts.max_points is None
    assert ts.dropped == 0 and ts.total == 10


def test_timeseries_max_points_validation():
    with pytest.raises(ValueError):
        TimeSeries("g", max_points=0)
    sim = Simulator()
    with pytest.raises(ValueError):
        MetricsRecorder(sim).series("g", max_points=-1)


def test_recorder_series_applies_max_points():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    ts = metrics.series("bounded", max_points=10)
    assert ts.max_points == 10
    # Re-request without the bound keeps it; with a bound, re-applies.
    assert metrics.series("bounded").max_points == 10
    assert metrics.series("bounded", max_points=5).max_points == 5


def test_bounded_probe_stops_growing():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.probe("depth", lambda: 1.0, interval=1.0, max_points=16)
    sim.run(until=500.0)
    ts = metrics.get("depth")
    assert ts.total == 499  # samples at t=1..499
    assert len(ts.samples) < 32


def test_kernel_gauges_accept_max_points():
    from repro.obs import kernel_stats

    sim = Simulator()
    metrics = MetricsRecorder(sim)
    labels = {"backend": kernel_stats(sim).backend}
    probes = [
        metrics.probe("kernel.queue.depth", lambda: len(sim.queue_backend),
                      interval=1.0, max_points=8, labels=labels),
        metrics.probe("kernel.events.dispatched",
                      lambda: kernel_stats(sim).events_dispatched,
                      interval=1.0, max_points=8, labels=labels),
    ]
    sim.run(until=100.0)
    for probe in probes:
        assert probe.series.labels == {"backend": "heap"}
        assert len(probe.series.samples) < 16
        assert probe.series.total == 99  # samples at t=1..99
    dispatched = metrics.get("kernel.events.dispatched{backend=heap}")
    assert dispatched is probes[1].series
    assert dispatched.last() > dispatched.samples[0][1]
    for probe in probes:
        probe.stop()
