"""Watchtower end-to-end: SLO objectives, burn-rate alerts, rollups.

The flagship scenario drives a spot price spike through the control
plane with rescue disabled, so every reclamation episode ends in a
requeue — the rescue-rate SLO collapses to 0 and the alert must walk
pending → firing → resolved at exactly the sim times the burn-rate
math dictates, visible in the Chrome-trace export and on the autonomic
trigger bus.
"""

import numpy as np
import pytest

from repro.autonomic import SLOMonitor, TriggerBus
from repro.cloud import SpotMarket
from repro.controlplane import ControlPlane, SchedulerConfig, SpotPolicy
from repro.metrics import MetricsRecorder, recorder_of
from repro.obs import (
    AlertState,
    BurnRatePolicy,
    Objective,
    SLOEngine,
    Tracer,
    dashboard_payload,
    health_rollups,
)
from repro.simkernel import Simulator
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import SpotPriceProcess

GRACE = 60.0
SPIKE_AT = 600.0
RESOLVE_EPISODES_AT = SPIKE_AT + GRACE  # all reclaims land here
EVAL_INTERVAL = 45.0  # never coincides with t=660


def _spiking_plane():
    """Two-cloud federation; the cheap cloud's market spikes above
    every bid at t=600 and rescue is disabled, so each episode resolves
    as a requeue at t=660."""
    tb = sky_testbed(
        sites=[SiteSpec("volatile", n_hosts=2, cores_per_host=8,
                        on_demand_hourly=0.10, region="eu"),
               SiteSpec("steady", n_hosts=2, cores_per_host=8,
                        on_demand_hourly=0.12, region="eu")],
        memory_pages=64, image_blocks=128,
    )
    sim = tb.sim
    markets = {
        "volatile": SpotMarket(
            sim, tb.clouds["volatile"],
            SpotPriceProcess(sim, np.array([0.0, SPIKE_AT, 1500.0]),
                             np.array([0.02, 0.50, 0.02])),
            reclaim_grace=GRACE),
    }
    plane = ControlPlane(
        sim, tb.federation, tb.image_name,
        config=SchedulerConfig(interval=10.0, lease_term=3000.0),
        spot_markets=markets,
        spot_policy=SpotPolicy(rescue=False, refuge=None),
        tracer=Tracer(sim),
    ).start()
    plane.register_tenant("acme", weight=1.0)
    jobs = [plane.submit("acme", n_nodes=2, runtime=2000.0,
                         name=f"job-{i}") for i in range(3)]
    return tb, plane, jobs


def _rescue_objective():
    return Objective(
        name="spot-rescue-rate",
        series="spot.episodes.resolved",
        good_series="spot.episodes.rescued",
        aggregate="ratio",
        op=">=",
        threshold=0.5,
        window=240.0,
        policy=BurnRatePolicy(target=0.99, short_window=60.0,
                              long_window=300.0, fire_burn=1.0,
                              resolve_burn=0.5),
        description="≥50% of terminal reclamation episodes saved in place",
    )


class TestRescueRateAlertEndToEnd:

    @pytest.fixture(scope="class")
    def run(self):
        tb, plane, jobs = _spiking_plane()
        engine = SLOEngine(tb.sim, plane.metrics,
                           interval=EVAL_INTERVAL).start()
        engine.add(_rescue_objective())
        bus = TriggerBus()
        SLOMonitor(bus, engine)
        tb.sim.run(until=1100.0)
        return tb, plane, engine, bus

    def test_spike_resolved_all_episodes_as_requeues(self, run):
        tb, plane, engine, bus = run
        episodes = [e for e in plane.spot.resolutions()
                    if e.outcome in ("rescued", "checkpointed", "requeued")]
        assert episodes, "spike produced no terminal episodes"
        assert all(e.outcome == "requeued" for e in episodes)
        assert all(e.time == RESOLVE_EPISODES_AT for e in episodes)

    def test_alert_lifecycle_times(self, run):
        tb, plane, engine, bus = run
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.objective.name == "spot-rescue-rate"
        assert alert.state == AlertState.RESOLVED
        # First evaluation after the episodes resolve sees rate 0.0.
        assert alert.pending_at == 675.0
        # One interval later both burn windows exceed the threshold:
        # short = (45/60)/0.01 = 75, long = (45/300)/0.01 = 15.
        assert alert.fired_at == 720.0
        # At t=900 the 240 s window has slid past the episodes (no
        # denominator growth -> compliant); the 60 s short window needs
        # until t=990 to cool below resolve_burn.
        assert alert.resolved_at == 990.0
        assert alert.value is None  # no traffic in window at resolution

    def test_alert_counters_recorded(self, run):
        tb, plane, engine, bus = run
        m = plane.metrics
        for state in ("pending", "firing", "resolved"):
            flat = m.get(f"alerts.{state}")
            labeled = m.get(f"alerts.{state}{{objective=spot-rescue-rate}}")
            assert flat is not None and flat.last() == 1.0
            assert labeled is not None and labeled.last() == 1.0
        assert m.get("alerts.firing").samples[0][0] == 720.0

    def test_alert_is_a_trace_instant_in_chrome_export(self, run):
        tb, plane, engine, bus = run
        doc = plane.tracer.to_chrome_trace()
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "alert:spot-rescue-rate" for e in spans)
        instants = [e for e in events if e["ph"] == "i"]
        names = {e["name"] for e in instants}
        assert {"pending", "firing", "resolved"} <= names
        # All three share the alert span's thread lane (the slo track).
        tids = {e["tid"] for e in instants
                if e["name"] in ("pending", "firing", "resolved")}
        assert len(tids) == 1

    def test_autonomic_receives_the_alert(self, run):
        tb, plane, engine, bus = run
        slo_triggers = [t for t in bus.triggers if t.kind == "slo"]
        assert [t.detail["state"] for t in slo_triggers] == \
            ["firing", "resolved"]
        assert slo_triggers[0].time == 720.0
        assert slo_triggers[1].time == 990.0
        assert all(t.detail["objective"] == "spot-rescue-rate"
                   for t in slo_triggers)

    def test_labeled_reclaim_counters_and_rollups(self, run):
        tb, plane, engine, bus = run
        m = plane.metrics
        labeled = m.get("spot.reclaims{cloud=volatile,tenant=acme}")
        assert labeled is not None and labeled.last() >= 1
        rollups = health_rollups(m)
        # Entries keep the labels other than the pivot.
        assert "spot.reclaims{cloud=volatile}" in rollups["tenant"]["acme"]
        assert "spot.reclaims{tenant=acme}" in rollups["cloud"]["volatile"]
        # queue.wait is recorded per tenant at first job start.
        assert "queue.wait" in rollups["tenant"]["acme"]

    def test_dashboard_payload_schema(self, run):
        tb, plane, engine, bus = run
        payload = dashboard_payload(plane.metrics, slo=engine)
        assert payload["schema"] == "repro.watchtower/1"
        (obj,) = payload["objectives"]
        assert obj["name"] == "spot-rescue-rate"
        assert obj["state"] == "ok"  # alert resolved and detached
        assert obj["target"] == 0.99
        (alert,) = payload["alerts"]
        assert alert["state"] == "resolved"
        assert alert["fired_at"] == 720.0
        assert any(r["name"].startswith("spot.reclaims{")
                   for r in payload["series"])

    def test_recorder_installed_on_simulator(self, run):
        tb, plane, engine, bus = run
        assert recorder_of(tb.sim) is plane.metrics


class TestEngineUnit:

    def test_pending_alert_resolves_quietly_on_recovery(self):
        sim = Simulator()
        m = MetricsRecorder(sim)
        engine = SLOEngine(sim, m, interval=10.0)
        engine.add(Objective(name="wait", series="queue.wait",
                             aggregate="p95", op="<=", threshold=1.0,
                             window=100.0))
        bus_states = []
        engine.subscribe(lambda a: bus_states.append(a.state))

        def scenario():
            m.record("queue.wait", 5.0)   # violating sample at t=0
            yield sim.timeout(10.0)
            engine.evaluate()             # -> pending
            yield sim.timeout(10.0)
            m.record("queue.wait", 0.1)
            yield sim.timeout(90.0)       # violating sample ages out
            engine.evaluate()             # -> quiet resolution

        sim.process(scenario())
        sim.run()
        assert bus_states == ["pending"]  # no firing, no loud resolve
        assert len(engine.alerts) == 1
        assert engine.alerts[0].state == AlertState.RESOLVED
        assert engine.snapshot()[0]["state"] == "ok"

    def test_no_data_is_compliant(self):
        sim = Simulator()
        m = MetricsRecorder(sim)
        engine = SLOEngine(sim, m, interval=10.0)
        engine.add(Objective(name="dt", series="migration.downtime",
                             threshold=2.0))
        engine.evaluate()
        snap = engine.snapshot()[0]
        assert snap["value"] is None and snap["compliant"]
        assert engine.alerts == []

    def test_duplicate_objective_rejected(self):
        sim = Simulator()
        engine = SLOEngine(sim, MetricsRecorder(sim))
        engine.add(Objective(name="x", series="s", threshold=1.0))
        with pytest.raises(ValueError, match="duplicate"):
            engine.add(Objective(name="x", series="s", threshold=2.0))

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            Objective(name="r", series="total", aggregate="ratio",
                      threshold=0.5)
        with pytest.raises(ValueError, match="aggregate"):
            Objective(name="bad", series="s", aggregate="median",
                      threshold=1.0)
        with pytest.raises(ValueError, match="op"):
            Objective(name="bad", series="s", op="==", threshold=1.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(target=1.5)
        with pytest.raises(ValueError):
            BurnRatePolicy(short_window=600.0, long_window=60.0)


# -- PR 10 satellite: cursors survive ring-buffered series ---------------


def test_engine_ingests_each_sample_once_across_ring_eviction():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    engine = SLOEngine(sim, metrics, interval=10.0)
    engine.add(Objective(name="lat", series="lat", threshold=1e9,
                         aggregate="max", op="<=", window=1e6))
    metrics.series("lat", max_points=20)
    n = 0
    for batch in range(10):
        for _ in range(50):  # far more than the ring retains
            sim._now = float(n)
            metrics.record("lat", float(n))
            n += 1
        engine.evaluate()
    state = engine._states["lat"]
    # Every sample the engine could still see was ingested exactly
    # once; eviction between evaluations loses old samples but never
    # rewinds or double-counts the cursor.
    assert state.cursor == n == 500
    ingested = state.values.count
    assert ingested <= n
    # Each evaluation caught at least the ring's retained tail.
    assert ingested >= 10 * 20
    assert state.value == float(n - 1)  # newest sample always seen


def test_ratio_objective_survives_ring_eviction():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    engine = SLOEngine(sim, metrics, interval=10.0)
    engine.add(Objective(name="rate", series="total", good_series="good",
                         aggregate="ratio", op=">=", threshold=0.5,
                         window=1e6))
    metrics.series("total", max_points=10)
    metrics.series("good", max_points=10)
    total = good = 0.0
    for batch in range(5):
        for i in range(40):
            sim._now = batch * 40.0 + i
            total += 1.0
            metrics.record("total", total)
            if i % 2 == 0:
                good += 1.0
                metrics.record("good", good)
        engine.evaluate()
    state = engine._states["rate"]
    # Counter deltas integrate evicted history: the windowed delta of
    # a cumulative counter only needs first/last retained samples per
    # evaluation, so the ratio stays exact.
    assert state.value == pytest.approx(0.5, abs=0.05)
