"""Tests for the typed transfer spine (repro.network.transport)."""

import pytest

from repro.metrics import MetricsRecorder
from repro.network import (
    FlowScheduler,
    Site,
    Topology,
    Transport,
    TransferClass,
)
from repro.simkernel import Simulator


def two_site(bandwidth=1e6):
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=bandwidth, latency=0.0)
    return sim, FlowScheduler(sim, topo)


def test_typed_methods_produce_classified_records():
    sim, sched = two_site()
    transport = Transport.of(sched)
    records = []
    sched.taps.append(records.append)
    starters = {
        TransferClass.MIGRATION: transport.migration,
        TransferClass.SHUFFLE: transport.shuffle,
        TransferClass.PROPAGATION: transport.propagation,
        TransferClass.CONTROL: transport.control,
        TransferClass.DATA: transport.data,
    }
    flows = [start("a", "b", 1e5) for start in starters.values()]
    sim.run(until=sim.all_of([f.done for f in flows]))

    assert len(records) == len(starters)
    assert {Transport.classify(r) for r in records} == set(starters)
    for r in records:
        cls = Transport.classify(r)
        assert (r.src, r.dst, r.size) == ("a", "b", 1e5)
        assert r.tag == cls.value  # default tag is the class
        assert r.duration == r.finished_at - r.started_at
        assert transport.transfers_by_class[cls] == 1
        assert transport.bytes_by_class[cls] == 1e5
    assert transport.summary()["shuffle"] == {"bytes": 1e5, "transfers": 1}


def test_transport_of_is_cached_and_idempotent():
    sim, sched = two_site()
    transport = Transport.of(sched)
    assert Transport.of(sched) is transport
    assert Transport.of(transport) is transport
    assert transport.scheduler is sched


def test_call_rate_cap_binds():
    sim, sched = two_site()
    transport = Transport.of(sched)
    capped = transport.migration("a", "b", 1e5, rate_cap=1e5)

    def probe():
        yield sim.timeout(0.1)
        assert capped.rate == pytest.approx(1e5)  # not the 1 MB/s link

    sim.process(probe())
    sim.run(until=capped.done)
    assert sim.now == pytest.approx(1.0)


def test_raw_flow_counts_as_data():
    sim, sched = two_site()
    transport = Transport.of(sched)
    flow = sched.start_flow("a", "b", 1e5)
    sim.run(until=flow.done)
    assert transport.summary()["data"] == {"bytes": 1e5, "transfers": 1}
    assert sum(transport.transfers_by_class.values()) == 1


def test_installed_recorder_gets_per_class_throughput():
    sim, sched = two_site()
    transport = Transport.of(sched)
    metrics = MetricsRecorder(sim).install()
    flow = transport.shuffle("a", "b", 1e5)
    sim.run(until=flow.done)
    series = metrics.get("transport.throughput{class=shuffle}")
    assert series.values() == [pytest.approx(1e6)]  # 1e5 B in 0.1 s
    assert metrics.get("transport.throughput{class=data}") is None


def test_transfer_span_propagates_parent_context():
    from repro.obs import Tracer

    sim, sched = two_site()
    transport = Transport.of(sched)
    tracer = Tracer(sim).install()

    def work():
        with tracer.start("op", track="work") as parent:
            flow = transport.migration("a", "b", 1e5, span=parent)
            yield flow.done

    sim.process(work())
    sim.run()
    spans = {s.name: s for s in tracer.finished_spans()}
    xfer = spans["xfer:migration"]
    parent = spans["op"]
    assert xfer.parent_id == parent.span_id
    assert xfer.trace_id == parent.trace_id
    assert xfer.track == "work"  # inherits the caller's track
    assert xfer.attributes["bytes"] == 1e5
    assert xfer.end_time == pytest.approx(0.1)  # 1e5 B at 1 MB/s


def test_transfer_without_parent_gets_per_class_track():
    from repro.obs import Tracer

    sim, sched = two_site()
    transport = Transport.of(sched)
    tracer = Tracer(sim).install()
    flow = transport.shuffle("a", "b", 1e5)
    sim.run(until=flow.done)
    (span,) = tracer.finished_spans()
    assert span.parent_id is None
    assert span.track == "net:shuffle"


def test_no_tracer_means_no_spans_and_no_attribute():
    sim, sched = two_site()
    transport = Transport.of(sched)
    flow = transport.data("a", "b", 1e5)
    sim.run(until=flow.done)
    assert not hasattr(sim, "_tracer")
