"""Unit tests for the tracing spine: spans, exporters, critical path."""

import json

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    critical_path,
    span_to_dict,
    tracer_of,
)
from repro.simkernel import Simulator


# -- tracer / span basics ------------------------------------------------

def test_tracer_of_defaults_to_null():
    sim = Simulator()
    tracer = tracer_of(sim)
    assert tracer is NULL_TRACER
    assert not tracer.enabled
    assert tracer.start("anything") is NULL_SPAN


def test_install_makes_tracer_discoverable():
    sim = Simulator()
    tracer = Tracer(sim).install()
    assert tracer_of(sim) is tracer
    assert tracer.enabled


def test_null_span_is_inert():
    span = NULL_SPAN
    assert span.set(a=1) is span
    assert span.event("x") is span
    assert span.link(span) is span
    span.end()
    span.end_on(None)
    assert not span
    with span as s:
        assert s is span


def test_root_span_ids_and_nesting():
    sim = Simulator()
    tracer = Tracer(sim)
    root = tracer.start("root")
    assert root.trace_id == root.span_id
    assert root.parent_id is None
    child = tracer.start("child", parent=root)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    # children inherit their parent's track unless overridden
    assert child.track == root.track
    other = tracer.start("other", parent=root, track="elsewhere")
    assert other.track == "elsewhere"


def test_span_times_come_from_sim_clock():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        with tracer.start("op") as span:
            yield sim.timeout(3.5)
            span.event("milestone")
            yield sim.timeout(1.5)

    sim.process(work())
    sim.run()
    (span,) = tracer.finished_spans()
    assert span.start == 0.0
    assert span.end_time == 5.0
    assert span.events == [(3.5, "milestone", {})]


def test_span_end_is_idempotent_and_status_sticks():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.start("op")
    span.end(status="error")
    span.end()  # second end must not overwrite
    assert span.status == "error"


def test_context_manager_records_error_status():
    sim = Simulator()
    tracer = Tracer(sim)
    with pytest.raises(RuntimeError):
        with tracer.start("boom"):
            raise RuntimeError("x")
    (span,) = tracer.finished_spans()
    assert span.status == "error"


def test_end_on_event_success_and_failure():
    sim = Simulator()
    tracer = Tracer(sim)
    ok_ev = sim.event()
    bad_ev = sim.event()
    ok_span = tracer.start("ok")
    bad_span = tracer.start("bad")
    ok_span.end_on(ok_ev)
    bad_span.end_on(bad_ev)
    ok_ev.succeed()
    bad_ev.fail(RuntimeError("cancelled"))
    bad_ev.defused = True
    sim.run()
    assert ok_span.end_time is not None and ok_span.status == "ok"
    assert bad_span.end_time is not None and bad_span.status == "cancelled"


def test_deterministic_span_ids_and_jsonl():
    def run():
        sim = Simulator()
        tracer = Tracer(sim, seed=7)

        def work():
            with tracer.start("outer", kind="demo") as outer:
                yield sim.timeout(1.0)
                with tracer.start("inner", parent=outer):
                    yield sim.timeout(2.0)

        sim.process(work())
        sim.run()
        return tracer.to_jsonl()

    assert run() == run()  # byte-identical across same-seed runs


def _traced_flow_run(backend):
    """Rounds of two concurrent flows over a shared three-site topology,
    traced; returns the tracer after the run."""
    from repro.network.flows import FlowScheduler
    from repro.network.topology import Site, Topology
    from repro.network.transport import Transport

    sim = Simulator(queue=backend)
    tracer = Tracer(sim, seed=1).install()
    topo = Topology()
    for site in ("a", "b", "c"):
        topo.add_site(Site(site))
    topo.connect("a", "b", bandwidth=1e6, latency=0.01)
    topo.connect("b", "c", bandwidth=5e5, latency=0.02)
    transport = Transport.of(FlowScheduler(sim, topo))

    def driver():
        for round_no in range(20):
            root = tracer.start("round", no=round_no)
            f1 = transport.data("a", "b", 2e5 + round_no * 1e3, span=root)
            f2 = transport.data("a", "c", 3e5, span=root)
            yield f1.done & f2.done
            root.end()
            yield sim.timeout(0.05)

    sim.process(driver())
    sim.run()
    return tracer


def test_span_log_byte_identical_across_queue_backends():
    heap = _traced_flow_run("heap").to_jsonl()
    calendar = _traced_flow_run("calendar").to_jsonl()
    assert heap == calendar
    assert len(heap.splitlines()) >= 20


def test_stats_count_every_started_span():
    tracer = _traced_flow_run("heap")
    n = len(tracer.spans)
    assert n > 20
    assert tracer.stats() == {"started": n, "resident_peak": n}


def test_tracer_takes_no_streaming_options():
    with pytest.raises(TypeError):
        Tracer(Simulator(), sink=object())


# -- chrome trace export -------------------------------------------------

def _demo_tracer():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        with tracer.start("root", track="main") as root:
            yield sim.timeout(1.0)
            with tracer.start("child", parent=root) as child:
                child.event("tick", n=1)
                yield sim.timeout(2.0)
            side = tracer.start("side", track="aux")
            side.link(root)
            yield sim.timeout(0.5)
            side.end()

    sim.process(work())
    sim.run()
    return tracer


def test_chrome_trace_schema():
    tracer = _demo_tracer()
    doc = tracer.to_chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events, "expected events"
    for ev in events:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in ev, f"missing {key} in {ev}"
    # must round-trip through json
    json.dumps(doc)


def test_chrome_trace_complete_events_use_microseconds():
    tracer = _demo_tracer()
    events = tracer.to_chrome_trace()["traceEvents"]
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    assert xs["root"]["ts"] == 0
    assert xs["root"]["dur"] == pytest.approx(3.5e6)
    assert xs["child"]["ts"] == pytest.approx(1.0e6)
    assert xs["child"]["dur"] == pytest.approx(2.0e6)


def test_chrome_trace_tracks_and_links():
    tracer = _demo_tracer()
    events = tracer.to_chrome_trace()["traceEvents"]
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    assert xs["root"]["tid"] == xs["child"]["tid"]
    assert xs["side"]["tid"] != xs["root"]["tid"]
    metas = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in metas if e["name"] == "thread_name"}
    assert {"main", "aux"} <= names
    phs = {e["ph"] for e in events}
    assert {"s", "f"} <= phs  # flow pair for the link
    instants = [e for e in events if e["ph"] == "i"]
    assert any(e["name"] == "tick" for e in instants)


def test_jsonl_and_span_dict_shape():
    tracer = _demo_tracer()
    lines = tracer.to_jsonl().strip().split("\n")
    assert len(lines) == len(tracer.spans)
    for line in lines:
        d = json.loads(line)
        assert {"trace_id", "span_id", "parent_id", "name", "track",
                "start", "end", "status", "attributes", "events",
                "links"} <= set(d)
    d = span_to_dict(tracer.spans[0])
    assert d["name"] == "root"


def test_dump_files(tmp_path):
    tracer = _demo_tracer()
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    tracer.dump_chrome_trace(chrome)
    tracer.dump_jsonl(jsonl)
    doc = json.loads(chrome.read_text(encoding="utf-8"))
    assert doc["traceEvents"]
    assert jsonl.read_text(encoding="utf-8") == tracer.to_jsonl()


# -- critical path -------------------------------------------------------

def _make_trace(builder):
    """Run ``builder(sim, tracer)`` (a generator) and return the tracer."""
    sim = Simulator()
    tracer = Tracer(sim)
    sim.process(builder(sim, tracer))
    sim.run()
    return tracer


def test_critical_path_sequential_children():
    def build(sim, tracer):
        with tracer.start("root") as root:
            with tracer.start("a", parent=root, phase="p1"):
                yield sim.timeout(2.0)
            with tracer.start("b", parent=root, phase="p2"):
                yield sim.timeout(3.0)

    tracer = _make_trace(build)
    report = critical_path(tracer)
    assert report.total == pytest.approx(5.0)
    assert report.path_duration() == pytest.approx(report.total)
    assert list(report.by_name().items()) == [("b", pytest.approx(3.0)),
                                              ("a", pytest.approx(2.0))]
    phases = report.by_attribute("phase")
    assert phases["p1"] == pytest.approx(2.0)
    assert phases["p2"] == pytest.approx(3.0)


def test_critical_path_parallel_children_picks_longest():
    def build(sim, tracer):
        root = tracer.start("root")

        def branch(name, dur):
            with tracer.start(name, parent=root):
                yield sim.timeout(dur)

        procs = [sim.process(branch("short", 1.0)),
                 sim.process(branch("long", 4.0))]
        yield sim.all_of(procs)
        root.end()

    tracer = _make_trace(build)
    report = critical_path(tracer)
    assert report.total == pytest.approx(4.0)
    names = [seg.span.name for seg in report.segments]
    assert "long" in names and "short" not in names
    assert report.path_duration() == pytest.approx(4.0)


def test_critical_path_gaps_attributed_to_parent():
    def build(sim, tracer):
        with tracer.start("root") as root:
            with tracer.start("a", parent=root):
                yield sim.timeout(1.0)
            yield sim.timeout(2.0)  # parent self-time gap
            with tracer.start("b", parent=root):
                yield sim.timeout(1.0)

    tracer = _make_trace(build)
    report = critical_path(tracer)
    assert report.total == pytest.approx(4.0)
    by_name = dict(report.by_name())
    assert by_name["root"] == pytest.approx(2.0)
    assert report.path_duration() == pytest.approx(4.0)


def test_critical_path_nested_attribution_falls_back_to_ancestor():
    def build(sim, tracer):
        with tracer.start("root") as root:
            with tracer.start("phase-span", parent=root,
                              phase="precopy") as ps:
                # grandchild without its own phase attribute
                with tracer.start("xfer", parent=ps):
                    yield sim.timeout(3.0)

    tracer = _make_trace(build)
    report = critical_path(tracer)
    phases = report.by_attribute("phase")
    assert phases["precopy"] == pytest.approx(3.0)


def test_critical_path_requires_finished_root():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.start("never-ends")
    with pytest.raises(ValueError):
        critical_path(tracer)


def test_critical_path_format_mentions_root_and_total():
    def build(sim, tracer):
        with tracer.start("root") as root:
            with tracer.start("a", parent=root, phase="p1"):
                yield sim.timeout(2.0)

    tracer = _make_trace(build)
    report = critical_path(tracer)
    text = report.format(key="phase")
    assert "root" in text and "p1" in text
