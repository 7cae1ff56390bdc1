"""Unit tests for the simulation kernel: events, processes, run loop."""

import numpy as np
import pytest

from repro.obs import CallbackProfiler, kernel_stats
from repro.simkernel import (
    EmptySchedule,
    Interrupt,
    SimulationError,
    Simulator,
    URGENT,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(initial_time=7.5).now == 7.5


def test_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(3)
        times.append(sim.now)
        yield sim.timeout(4.5)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [3, 7.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        got.append((yield sim.timeout(1, value="hello")))

    sim.process(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1)

    sim.process(ticker(sim))
    sim.run(until=10)
    assert sim.now == 10


def test_run_until_time_does_not_process_events_at_horizon():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=10)
    assert fired == []


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 2


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5)
    with pytest.raises(ValueError):
        sim.run(until=1)


def test_run_to_exhaustion_with_time_horizon_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)

    sim.process(proc(sim))
    sim.run(until=100)
    assert sim.now == 100


def test_step_on_empty_queue_raises():
    with pytest.raises(EmptySchedule):
        Simulator().step()


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(3)
    assert sim.peek() == 0 or sim.peek() == 3  # scheduled at now+3
    # Timeout schedules at now+delay:
    assert sim.peek() == 3


def test_event_ordering_fifo_at_same_time():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in "abc":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_processes_wait_on_each_other():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(5)
        log.append("child done")
        return "payload"

    def parent(sim):
        value = yield sim.process(child(sim))
        log.append(f"parent got {value}")

    sim.process(parent(sim))
    sim.run()
    assert log == ["child done", "parent got payload"]


def test_event_succeed_resumes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        got.append((yield ev))

    def firer(sim):
        yield sim.timeout(3)
        ev.succeed("boom")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert got == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as err:
            caught.append(str(err))

    def firer(sim):
        yield sim.timeout(1)
        ev.fail(RuntimeError("kaput"))

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert caught == ["kaput"]


def test_unhandled_event_failure_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        sim.run()


def test_unhandled_process_exception_crashes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("process blew up")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="process blew up"):
        sim.run()


def test_process_exception_caught_by_waiting_parent():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as err:
            caught.append(str(err))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["inner"]


def test_yield_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim_proc):
        yield sim.timeout(10)
        victim_proc.interrupt(cause="preempted")

    v = sim.process(victim(sim))
    sim.process(interrupter(sim, v))
    sim.run()
    assert log == [(10, "preempted")]


def test_interrupt_leaves_original_event_pending_and_reyieldable():
    sim = Simulator()
    log = []

    def victim(sim):
        target = sim.timeout(100)
        try:
            yield target
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield target  # resume waiting for the original event
        log.append(("done", sim.now))

    def interrupter(sim, victim_proc):
        yield sim.timeout(10)
        victim_proc.interrupt()

    v = sim.process(victim(sim))
    sim.process(interrupter(sim, v))
    sim.run()
    assert log == [("interrupted", 10), ("done", 100)]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    sim = Simulator()
    errors = []

    def proc(sim):
        me = sim.active_process
        try:
            me.interrupt()
        except SimulationError:
            errors.append(True)
        yield sim.timeout(0)

    sim.process(proc(sim))
    sim.run()
    assert errors == [True]


def test_process_is_alive_and_repr():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)

    p = sim.process(proc(sim), name="worker")
    assert p.is_alive
    assert "worker" in repr(p)
    sim.run()
    assert not p.is_alive


def test_simulator_stop_from_callback():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        sim.stop("bail")
        yield sim.timeout(1)  # pragma: no cover

    sim.process(proc(sim))
    assert sim.run() == "bail"
    assert sim.now == 1


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=ev)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("cached")
    got = []

    def late(sim):
        yield sim.timeout(5)
        got.append((yield ev))
        got.append(sim.now)

    sim.process(late(sim))
    sim.run()
    assert got == ["cached", 5]


def test_descheduled_event_skipped_without_advancing_clock():
    sim = Simulator()
    fired = []
    t1 = sim.timeout(5, value="a")
    t2 = sim.timeout(10, value="b")
    t1.callbacks.append(lambda ev: fired.append(sim.now))
    t2.callbacks.append(lambda ev: fired.append(sim.now))
    t2.deschedule()
    sim.run()
    assert fired == [5]
    # The clock never advanced to the dead timer's deadline.
    assert sim.now == 5


def test_descheduled_event_invisible_to_peek():
    sim = Simulator()
    t1 = sim.timeout(5)
    t2 = sim.timeout(2)
    t2.deschedule()
    assert sim.peek() == 5


def test_deschedule_everything_leaves_empty_queue():
    sim = Simulator()
    for d in (1, 2, 3):
        sim.timeout(d).deschedule()
    sim.run()
    assert sim.now == 0
    assert sim.peek() == float("inf")


def test_numpy_delay_keeps_clock_a_python_float():
    sim = Simulator()
    sim.call_in(np.float64(2.5), lambda ev: None)
    sim.timeout(np.float32(1.0))
    sim.run()
    assert sim.now == 2.5
    assert type(sim.now) is float
    with pytest.raises(ValueError):
        sim.call_in(np.float64("nan"), lambda ev: None)


# -- kernel event accounting ---------------------------------------------


@pytest.mark.parametrize("queue", ["heap", "calendar"])
@pytest.mark.parametrize("profiled", [False, True])
def test_events_dispatched_counts_only_events_that_ran(profiled, queue):
    """One batch of five same-instant events: ``a`` cancels ``b`` after
    the batch was popped, ``c`` schedules an URGENT event at the current
    instant, which preempts the batch and re-pushes ``d`` and ``e``.
    Five events ran (a, c, u, d, e); counting every popped entry would
    report 8 (5 + 1 + the 2 re-pushed)."""
    sim = Simulator(queue=queue)
    prof = CallbackProfiler(sim) if profiled else None
    ran = []

    def note(tag):
        return lambda ev: ran.append(tag)

    def cancel_b(ev):
        ran.append("a")
        b.deschedule()

    def preempt(ev):
        ran.append("c")
        sim.call_in(0.0, note("u"), priority=URGENT)

    sim.call_in(1.0, cancel_b)
    b = sim.call_in(1.0, note("b"))
    sim.call_in(1.0, preempt)
    sim.call_in(1.0, note("d"))
    sim.call_in(1.0, note("e"))
    sim.run()
    assert ran == ["a", "c", "u", "d", "e"]
    ks = kernel_stats(sim)
    assert ks.preemptions == 1
    assert ks.events_dispatched == 5
    if profiled:
        assert prof.snapshot().events == 5


@pytest.mark.parametrize("profiled", [False, True])
def test_events_dispatched_excludes_remainder_of_a_crashed_batch(profiled):
    sim = Simulator()
    prof = CallbackProfiler(sim) if profiled else None
    ran = []

    def boom(ev):
        ran.append("boom")
        raise RuntimeError("crash")

    sim.call_in(1.0, lambda ev: ran.append("x"))
    sim.call_in(1.0, boom)
    sim.call_in(1.0, lambda ev: ran.append("y"))
    with pytest.raises(RuntimeError):
        sim.run()
    # x and the raising callback ran; y was re-pushed, not dispatched.
    assert kernel_stats(sim).events_dispatched == 2
    sim.run()
    assert ran == ["x", "boom", "y"]
    assert kernel_stats(sim).events_dispatched == 3
    if profiled:
        assert prof.snapshot().events == 3
