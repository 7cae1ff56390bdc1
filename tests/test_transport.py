"""Tests for the typed transfer spine (repro.network.transport)."""

import pytest

from repro.metrics import MetricsRecorder
from repro.network import (
    ClassPolicy,
    FlowScheduler,
    Site,
    Topology,
    Transport,
    TransferClass,
    TransferRecord,
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
    transport.taps.append(records.append)
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
    assert {r.transfer_class for r in records} == set(starters)
    for r in records:
        assert isinstance(r, TransferRecord)
        assert (r.src, r.dst, r.size) == ("a", "b", 1e5)
        assert r.tag == r.transfer_class.value  # default tag is the class
        assert r.duration == r.finished_at - r.started_at
        assert transport.transfers_by_class[r.transfer_class] == 1
        assert transport.bytes_by_class[r.transfer_class] == 1e5
    assert transport.summary()["shuffle"] == {"bytes": 1e5, "transfers": 1}


def test_transport_of_is_cached_and_idempotent():
    sim, sched = two_site()
    transport = Transport.of(sched)
    assert Transport.of(sched) is transport
    assert Transport.of(transport) is transport
    assert transport.scheduler is sched


def test_policy_rate_cap_combines_with_call_cap():
    sim, sched = two_site()
    transport = Transport(
        sched, policies={TransferClass.MIGRATION: ClassPolicy(rate_cap=2e5)})
    policy_capped = transport.migration("a", "b", 2e5)
    call_capped = transport.migration("a", "b", 1e5, rate_cap=1e5)

    def probe():
        yield sim.timeout(0.1)
        assert policy_capped.rate == pytest.approx(2e5)  # policy cap binds
        assert call_capped.rate == pytest.approx(1e5)  # tighter call cap wins

    sim.process(probe())
    sim.run(until=sim.all_of([policy_capped.done, call_capped.done]))
    assert sim.now == pytest.approx(1.0)


def test_aggregate_cap_limits_class_total_rate():
    sim, sched = two_site(bandwidth=1e7)
    transport = Transport(
        sched,
        policies={TransferClass.PROPAGATION: ClassPolicy(aggregate_cap=1e6)})
    f1 = transport.propagation("a", "b", 1e6)
    f2 = transport.propagation("a", "b", 1e6)
    bystander = transport.data("a", "b", 1e6)

    def probe():
        yield sim.timeout(0.1)
        assert f1.rate + f2.rate == pytest.approx(1e6)
        # The cap constrains only its class; other traffic takes the rest.
        assert bystander.rate == pytest.approx(1e7 - 1e6)

    sim.process(probe())
    sim.run(until=sim.all_of([f1.done, f2.done, bystander.done]))


def test_set_policy_updates_live_aggregate_cap():
    sim, sched = two_site(bandwidth=1e7)
    transport = Transport(
        sched,
        policies={TransferClass.MIGRATION: ClassPolicy(aggregate_cap=1e6)})
    flow = transport.migration("a", "b", 2e6)

    def relax():
        yield sim.timeout(1.0)  # 1e6 B sent at the 1 MB/s class ceiling
        transport.set_policy(TransferClass.MIGRATION,
                             ClassPolicy(aggregate_cap=2e6))

    sim.process(relax())
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(1.5)  # remaining 1e6 B at 2 MB/s


def test_priority_weights_the_maxmin_share():
    sim, sched = two_site()
    transport = Transport(
        sched, policies={TransferClass.MIGRATION: ClassPolicy(priority=3.0)})
    heavy = transport.migration("a", "b", 1e6)
    light = transport.data("a", "b", 1e6)

    def probe():
        yield sim.timeout(0.1)
        assert heavy.rate == pytest.approx(3e6 / 4)
        assert light.rate == pytest.approx(1e6 / 4)

    sim.process(probe())
    sim.run(until=sim.all_of([heavy.done, light.done]))


def test_bind_metrics_streams_per_class_series():
    sim, sched = two_site()
    transport = Transport.of(sched)
    metrics = MetricsRecorder(sim)
    transport.bind_metrics(metrics)
    flows = [transport.shuffle("a", "b", 1e5) for _ in range(3)]
    sim.run(until=sim.all_of([f.done for f in flows]))

    assert metrics.series("transport.shuffle.transfers").last() == 3
    assert metrics.series("transport.shuffle.bytes").last() == 3e5
    assert len(metrics.series("transport.migration.bytes")) == 0


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
