"""Edge-branch tests for the kernel not covered elsewhere."""

import pytest

from repro.simkernel import AnyOf, Simulator


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_trigger_chains_success_and_failure():
    sim = Simulator()
    src_ok = sim.event()
    src_ok.succeed("payload")
    dst = sim.event()
    dst.trigger(src_ok)
    sim.run()
    assert dst.value == "payload"

    src_bad = sim.event()
    src_bad.fail(RuntimeError("boom"))
    src_bad.defused = True
    dst2 = sim.event()
    dst2.trigger(src_bad)
    dst2.defused = True
    sim.run()
    assert isinstance(dst2.value, RuntimeError)


def test_run_until_already_processed_event_returns_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(99)
    sim.run()
    assert ev.processed
    assert sim.run(until=ev) == 99


def test_anyof_fails_fast_on_failing_child():
    sim = Simulator()
    caught = []

    def proc(sim):
        bad = sim.event()

        def failer(sim):
            yield sim.timeout(1)
            bad.fail(KeyError("child"))

        sim.process(failer(sim))
        slow = sim.timeout(100)
        try:
            yield AnyOf(sim, [bad, slow])
        except KeyError:
            caught.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert caught == [1]


def test_event_defused_flag_suppresses_crash():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("handled elsewhere"))
    ev.defused = True
    sim.run()  # must not raise
    assert ev.ok is False


def test_process_defused_before_it_fails_does_not_crash():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise RuntimeError("handled elsewhere")

    p = sim.process(proc(sim))
    p.defused = True  # set up front, before the generator raises
    sim.run()  # must not raise
    assert p.ok is False
    assert isinstance(p.value, RuntimeError)


def test_condition_operators_combine_mixed():
    sim = Simulator()
    out = {}

    def proc(sim):
        a = sim.timeout(1, value="a")
        b = sim.timeout(5, value="b")
        c = sim.timeout(9, value="c")
        out["r"] = yield (a & b) | c
        out["t"] = sim.now

    sim.process(proc(sim))
    sim.run()
    # (a & b) completes at t=5, before c at t=9.
    assert out["t"] == 5
    assert sorted(out["r"].values()) == ["a", "b"]


def test_process_waits_on_failed_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("stale failure"))
    ev.defused = True
    sim.run()
    caught = []

    def late(sim):
        yield sim.timeout(1)
        try:
            yield ev
        except ValueError:
            caught.append(sim.now)

    sim.process(late(sim))
    sim.run()
    assert caught == [1]


def test_stop_value_propagates_through_nested_runs():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2)
        sim.stop({"reason": "done"})

    sim.process(proc(sim))
    assert sim.run() == {"reason": "done"}


def test_interrupt_cause_accessible():
    from repro.simkernel import Interrupt

    intr = Interrupt({"kind": "preemption"})
    assert intr.cause == {"kind": "preemption"}
