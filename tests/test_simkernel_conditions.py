"""Tests for AllOf/AnyOf condition events and operator composition."""

import gc

import pytest

from repro.simkernel import AllOf, AnyOf, ConditionValue, Simulator


def test_and_waits_for_both():
    sim = Simulator()
    done = []

    def proc(sim):
        a = sim.timeout(3, value="a")
        b = sim.timeout(7, value="b")
        result = yield a & b
        done.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(7, ["a", "b"])]


def test_or_fires_on_first():
    sim = Simulator()
    done = []

    def proc(sim):
        a = sim.timeout(3, value="a")
        b = sim.timeout(7, value="b")
        result = yield a | b
        done.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(3, ["a"])]


def test_nested_conditions_flatten():
    sim = Simulator()
    done = []

    def proc(sim):
        a = sim.timeout(1, value=1)
        b = sim.timeout(2, value=2)
        c = sim.timeout(3, value=3)
        result = yield (a & b) & c
        done.append((sim.now, sorted(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(3, [1, 2, 3])]


def test_allof_empty_triggers_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        result = yield AllOf(sim, [])
        done.append((sim.now, len(result)))

    sim.process(proc(sim))
    sim.run()
    assert done == [(0, 0)]


def test_anyof_empty_triggers_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        yield AnyOf(sim, [])
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [0]


def test_allof_helper_on_simulator():
    sim = Simulator()
    done = []

    def proc(sim):
        events = [sim.timeout(t, value=t) for t in (5, 2, 9)]
        result = yield sim.all_of(events)
        done.append((sim.now, [result[e] for e in events]))

    sim.process(proc(sim))
    sim.run()
    assert done == [(9, [5, 2, 9])]


def test_anyof_helper_on_simulator():
    sim = Simulator()
    done = []

    def proc(sim):
        events = [sim.timeout(t, value=t) for t in (5, 2, 9)]
        result = yield sim.any_of(events)
        done.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(2, [2])]


def test_condition_fails_if_child_fails():
    sim = Simulator()
    caught = []

    def proc(sim):
        ev = sim.event()
        t = sim.timeout(10)

        def failer(sim):
            yield sim.timeout(1)
            ev.fail(RuntimeError("child died"))

        sim.process(failer(sim))
        try:
            yield ev & t
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(proc(sim))
    sim.run()
    assert caught == ["child died"]


def test_condition_with_already_processed_events():
    sim = Simulator()
    done = []

    def proc(sim):
        a = sim.timeout(1, value="a")
        yield a
        yield sim.timeout(1)
        # `a` is long processed; condition should still count it.
        b = sim.timeout(1, value="b")
        result = yield a & b
        done.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(3, ["a", "b"])]


def test_mixing_simulators_rejected():
    sim1, sim2 = Simulator(), Simulator()
    a = sim1.timeout(1)
    b = sim2.timeout(1)
    with pytest.raises(ValueError):
        AllOf(sim1, [a, b])


def test_condition_value_mapping_interface():
    sim = Simulator()
    checks = []

    def proc(sim):
        a = sim.timeout(1, value="x")
        b = sim.timeout(2, value="y")
        result = yield a & b
        checks.append(isinstance(result, ConditionValue))
        checks.append(result[a])
        checks.append(a in result)
        checks.append(len(result))
        checks.append(result.todict() == {a: "x", b: "y"})
        checks.append(result == {a: "x", b: "y"})
        checks.append(list(result.items()) == [(a, "x"), (b, "y")])

    sim.process(proc(sim))
    sim.run()
    assert checks == [True, "x", True, 2, True, True, True]


def test_condition_value_missing_key():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(1)
        b = sim.timeout(2)
        result = yield sim.all_of([a])
        try:
            result[b]
        except KeyError:
            return "keyerror"
        return "no error"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "keyerror"


def test_nested_condition_success_makes_no_cyclic_garbage():
    """Flattening a nested condition's leaves builds no reference cycle,
    so a success leaves nothing for the cyclic collector, and the
    leaves keep child order, depth first."""
    sim = Simulator()
    a, b, c, d = (sim.timeout(t, value=t) for t in (1, 2, 3, 4))
    cond = AllOf(sim, [a, (b | c) & d])
    # Garbage an earlier test left may make more when finalized:
    # collect until none is left, whatever ran before.
    while gc.collect():
        pass
    gc.disable()
    try:
        sim.run()
        assert list(cond.value) == [a, b, c, d]
        assert gc.collect() == 0
    finally:
        gc.enable()
