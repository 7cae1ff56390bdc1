"""Queue backends and batch dispatch.

The core contract under test: every queue backend delivers events in
the identical ``(time, priority, seq)`` total order, so a simulation is
byte-for-byte reproducible regardless of backend.  Hypothesis drives
randomized schedules (same-time FIFO ties, URGENT/NORMAL mixes,
descheduled subsets) through both backends and requires identical
dispatch orders; a traced flow scenario requires byte-identical span
JSONL across backends.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import FlowScheduler, Site, Topology
from repro.obs import Tracer
from repro.simkernel import (
    BACKENDS,
    CalendarQueue,
    EmptySchedule,
    HeapQueue,
    NORMAL,
    Simulator,
    URGENT,
    make_queue,
)
from repro.simkernel.queues import COMPACT_MIN


# ---------------------------------------------------------------------------
# Backend selection / construction
# ---------------------------------------------------------------------------

def test_backend_registry_and_specs():
    assert isinstance(make_queue(None), HeapQueue)
    assert isinstance(make_queue("heap"), HeapQueue)
    assert isinstance(make_queue("calendar"), CalendarQueue)
    custom = CalendarQueue(bucket_width=0.25)
    assert make_queue(custom) is custom
    assert set(BACKENDS) == {"heap", "calendar"}
    with pytest.raises(ValueError, match="unknown queue backend"):
        make_queue("ladder")
    with pytest.raises(ValueError):
        CalendarQueue(bucket_width=0.0)


def test_simulator_accepts_backend_specs():
    assert isinstance(Simulator().queue_backend, HeapQueue)
    assert isinstance(Simulator(queue="calendar").queue_backend,
                      CalendarQueue)
    q = CalendarQueue(bucket_width=10.0)
    assert Simulator(queue=q).queue_backend is q


# ---------------------------------------------------------------------------
# Delay validation (NaN / non-finite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delay", [float("nan"), float("inf"),
                                   -float("inf"), -0.5])
def test_schedule_rejects_bad_delays(delay):
    sim = Simulator()
    with pytest.raises(ValueError, match="finite and non-negative"):
        sim.schedule(sim.event(), delay=delay)
    with pytest.raises(ValueError):
        sim.call_in(delay, lambda _ev: None)


def test_timeout_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError):
        sim.timeout(float("inf"))


# ---------------------------------------------------------------------------
# Backend equivalence (hypothesis)
# ---------------------------------------------------------------------------

def _dispatch_order(backend, schedule):
    """Run one randomized schedule; return the observed dispatch log.

    ``schedule`` is a list of ``(delay, priority, cancel)`` tuples; all
    events are armed up front (so seq order is fixed), then the marked
    subset is descheduled before running.
    """
    sim = Simulator(queue=backend)
    log = []
    armed = []
    for i, (delay, priority, cancel) in enumerate(schedule):
        def cb(_ev, i=i):
            log.append((sim.now, i))
        armed.append((sim.call_in(delay, cb, priority=priority), cancel))
    for event, cancel in armed:
        if cancel:
            event.deschedule()
    sim.run()
    return log, sim.now


SCHEDULE = st.lists(
    st.tuples(
        # Coarse delays force plenty of exact same-time ties.
        st.integers(min_value=0, max_value=8).map(lambda n: n * 0.5),
        st.sampled_from([URGENT, NORMAL]),
        st.booleans(),
    ),
    min_size=1, max_size=60,
)


@given(schedule=SCHEDULE)
@settings(max_examples=120, deadline=None)
def test_backends_dispatch_identically(schedule):
    heap_log, heap_now = _dispatch_order("heap", schedule)
    cal_log, cal_now = _dispatch_order("calendar", schedule)
    assert heap_log == cal_log
    assert heap_now == cal_now
    # And the order is the specified total order: (time, priority, seq),
    # with descheduled events absent.
    expected = [
        (delay, priority, i)
        for i, (delay, priority, cancel) in enumerate(schedule)
        if not cancel
    ]
    expected.sort()
    assert [i for _, _, i in expected] == [i for _, i in heap_log]


@given(schedule=SCHEDULE, width=st.sampled_from([0.1, 0.5, 1.0, 7.0]))
@settings(max_examples=60, deadline=None)
def test_calendar_order_is_width_independent(schedule, width):
    base_log, base_now = _dispatch_order("heap", schedule)
    cal_log, cal_now = _dispatch_order(CalendarQueue(bucket_width=width),
                                       schedule)
    assert cal_log == base_log
    assert cal_now == base_now


@given(
    delays=st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_backends_agree_on_float_delays(delays):
    """Arbitrary float times (bucket-boundary hazards included)."""
    schedule = [(d, NORMAL, False) for d in delays]
    heap_log, _ = _dispatch_order("heap", schedule)
    cal_log, _ = _dispatch_order("calendar", schedule)
    assert heap_log == cal_log


def test_mid_batch_urgent_preemption_matches_across_backends():
    """A NORMAL batch member scheduling an URGENT event at the same
    instant must yield to it before the batch remainder, identically on
    both backends."""
    def run(backend):
        sim = Simulator(queue=backend)
        log = []

        def first(_ev):
            log.append("first")
            sim.call_in(0.0, lambda _e: log.append("urgent"),
                        priority=URGENT)

        sim.call_in(1.0, first)
        sim.call_in(1.0, lambda _e: log.append("second"))
        sim.call_in(1.0, lambda _e: log.append("third"))
        sim.run()
        return log

    heap_log = run("heap")
    assert heap_log == ["first", "urgent", "second", "third"]
    assert run("calendar") == heap_log


def test_tiny_delay_urgent_preempts_at_large_clock():
    """A positive delay absorbed by float addition (now + d == now)
    lands at the current instant and must preempt the running batch
    exactly like delay == 0.0 does."""
    base = float(2 ** 33)  # +1.0 is exact here, +1e-9 is absorbed
    assert base + 1e-9 == base
    for backend in BACKENDS:
        sim = Simulator(initial_time=base - 1.0, queue=backend)
        log = []

        def first(_ev):
            log.append("first")
            sim.call_in(1e-9, lambda _e: log.append("urgent"),
                        priority=URGENT)

        sim.call_in(1.0, first)
        sim.call_in(1.0, lambda _e: log.append("second"))
        sim.run()
        assert log == ["first", "urgent", "second"], backend


def test_batch_member_descheduled_by_earlier_member():
    """An event cancelled by an earlier same-batch callback never runs."""
    for backend in BACKENDS:
        sim = Simulator(queue=backend)
        log = []
        second = sim.call_in(1.0, lambda _e: log.append("second"))
        sim.call_in(0.0, lambda _e: second.deschedule(), priority=URGENT)
        sim.call_in(1.0, lambda _e: log.append("third"))
        sim.run()
        assert log == ["third"], backend


def test_stop_simulation_mid_batch_preserves_remainder():
    """StopSimulation raised mid-batch must not lose the rest of the
    batch: a continuation run dispatches it."""
    for backend in BACKENDS:
        sim = Simulator(queue=backend)
        log = []
        sim.call_in(1.0, lambda _e: log.append("a"))
        sim.call_in(1.0, lambda _e: sim.stop("halt"))
        sim.call_in(1.0, lambda _e: log.append("b"))
        sim.call_in(1.0, lambda _e: log.append("c"))
        assert sim.run() == "halt"
        # run() dispatched a, then the stopper aborted the batch; the
        # undispatched remainder survives for the continuation run.
        assert log == ["a"], backend
        sim.run()
        assert log == ["a", "b", "c"], backend


def test_run_until_batch_respects_stop_boundary():
    for backend in BACKENDS:
        sim = Simulator(queue=backend)
        log = []
        for _ in range(5):
            sim.call_in(2.0, lambda _e: log.append(sim.now))
        sim.run(until=2.0)  # events at exactly t=2 are not processed
        assert log == [] and sim.now == 2.0
        sim.run()
        assert len(log) == 5


# ---------------------------------------------------------------------------
# Lazy cancellation + compaction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_compaction_drops_dead_entries(backend):
    sim = Simulator(queue=backend)
    n = COMPACT_MIN * 2
    events = [sim.call_in(float(i % 97) + 1.0, lambda _e: None)
              for i in range(n)]
    q = sim.queue_backend
    assert len(q) == n
    # Deschedule >50%: the backend must compact below the dead mass.
    for ev in events[: (n * 3) // 4]:
        ev.deschedule()
    assert len(q) <= n - (n * 3) // 4 + COMPACT_MIN
    fired = []
    sim.run()
    assert len(fired) == 0  # callbacks above record nothing
    assert len(q) == 0


def test_calendar_prunes_dead_prefix_below_compaction_threshold():
    """A large dead prefix concentrated in one bucket is pruned without
    compaction (size below COMPACT_MIN) and the live tail survives."""
    sim = Simulator(queue=CalendarQueue(bucket_width=1e9))
    n = COMPACT_MIN - 112  # whole queue stays below the compaction floor
    events = [sim.call_in(float(i), lambda _e: None) for i in range(n)]
    log = []
    sim.call_in(float(n), lambda _e: log.append(sim.now))
    for ev in events:
        ev.deschedule()
    assert sim.peek() == float(n)
    sim.run()
    assert log == [float(n)]
    assert len(sim.queue_backend) == 0


def test_deschedule_is_invisible_to_peek_across_backends():
    for backend in BACKENDS:
        sim = Simulator(queue=backend)
        early = sim.call_in(1.0, lambda _e: None)
        sim.call_in(5.0, lambda _e: None)
        assert sim.peek() == 1.0
        early.deschedule()
        assert sim.peek() == 5.0, backend


def test_empty_calendar_raises_empty_schedule():
    sim = Simulator(queue="calendar")
    with pytest.raises(EmptySchedule):
        sim.step()


# ---------------------------------------------------------------------------
# Byte-identical traces across backends
# ---------------------------------------------------------------------------

def _traced_flow_run(backend):
    """A small traced multi-flow scenario; returns the span JSONL."""
    sim = Simulator(queue=backend)
    tracer = Tracer(sim, seed=1).install()
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=1e6, latency=0.01)
    topo.connect("b", "c", bandwidth=5e5, latency=0.02)
    sched = FlowScheduler(sim, topo)
    from repro.network.transport import Transport
    transport = Transport.of(sched)

    def driver():
        root = tracer.start("run")
        f1 = transport.data("a", "b", 3e5, span=root)
        f2 = transport.data("a", "c", 4e5, span=root)
        yield sim.timeout(0.1)
        f3 = transport.migration("b", "c", 2e5, span=root)
        yield f1.done & f2.done & f3.done
        root.end()

    sim.process(driver())
    sim.run()
    return tracer.to_jsonl()


def test_same_seed_traces_byte_identical_across_backends():
    heap_jsonl = _traced_flow_run("heap")
    cal_jsonl = _traced_flow_run("calendar")
    assert heap_jsonl == cal_jsonl
    # Sanity: the log is non-trivial and well-formed.
    lines = [json.loads(l) for l in heap_jsonl.strip().splitlines()]
    assert len(lines) >= 4
    assert all(math.isfinite(s["start"]) for s in lines)


# ---------------------------------------------------------------------------
# Health introspection: stats(), compactions, bucket shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["heap", "calendar"])
def test_stats_snapshot_tracks_depth_and_dead(backend):
    sim = Simulator(queue=backend)
    events = [sim.call_in(float(t), lambda _ev: None)
              for t in range(1, 21)]
    stats = sim.queue_backend.stats()
    assert stats["backend"] == backend
    assert stats["depth"] == 20
    assert stats["dead"] == 0 and stats["dead_ratio"] == 0.0
    for ev in events[:5]:
        ev.deschedule()
    stats = sim.queue_backend.stats()
    assert stats["dead"] == 5
    assert stats["dead_ratio"] == pytest.approx(0.25)
    sim.run()
    assert sim.queue_backend.stats()["depth"] == 0


@pytest.mark.parametrize("backend", ["heap", "calendar"])
def test_compaction_counter_increments_past_threshold(backend):
    sim = Simulator(queue=backend)
    events = [sim.call_in(1.0 + t * 0.01, lambda _ev: None)
              for t in range(COMPACT_MIN * 2)]
    queue = sim.queue_backend
    assert queue.compactions == 0
    for ev in events[: int(len(events) * 0.7)]:
        ev.deschedule()
    sim.run()
    assert queue.compactions >= 1
    stats = queue.stats()
    assert stats["compactions"] == queue.compactions
    assert stats["depth"] == 0 and stats["dead"] == 0


def test_calendar_stats_describe_buckets():
    queue = CalendarQueue(bucket_width=1.0)
    sim = Simulator(queue=queue)
    for t in range(10):
        for _ in range(3):
            sim.call_in(0.5 + float(t), lambda _ev: None)
    stats = queue.stats()
    assert stats["bucket_width"] == 1.0
    assert stats["buckets"] == 10
    assert stats["max_bucket"] == 3
    assert stats["mean_bucket"] == pytest.approx(3.0)
    assert stats["buckets"] * stats["mean_bucket"] == stats["depth"]
