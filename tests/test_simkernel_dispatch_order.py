"""Batch dispatch (``run``) against per-event dispatch (``step``).

``Simulator.step`` pops and runs one entry at a time, so its order is
the kernel's total order by definition.  ``run`` lifts whole
same-``(time, priority)`` batches and drains URGENT entries scheduled
mid-batch in hand; this suite generates same-instant schedules —
NORMAL and URGENT entries, entries that schedule further entries at
the current instant or later, mid-batch cancellations and one
``run(until=...)`` stop — and requires ``run`` to reproduce the
``step`` order exactly, on both queue backends, with the profiler on
and off.  A wrapped ``push`` also checks that preempting a batch never
sends one of its entries back to the queue.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import CallbackProfiler, kernel_stats
from repro.simkernel import (
    NORMAL,
    URGENT,
    EmptySchedule,
    Event,
    Simulator,
    StopSimulation,
)
from repro.simkernel.queues import CalendarQueue, HeapQueue

#: One entry kind: (delay when spawned, priority, actions on firing).
#: An action is ("spawn", k) — schedule kind ``i + 1 + k`` (if any) —
#: or ("cancel", k) — deschedule the ``k``-th entry created so far.
KINDS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0]),
        st.sampled_from([URGENT, NORMAL]),
        st.lists(st.tuples(st.sampled_from(["spawn", "spawn", "cancel"]),
                           st.integers(0, 40)), max_size=3),
    ),
    min_size=1, max_size=12,
)
ROOTS = st.lists(st.tuples(st.integers(0, 11),
                           st.sampled_from([0.0, 1.0, 2.0])),
                 min_size=1, max_size=10)
UNTIL = st.sampled_from([None, 0.0, 1.0, 1.5, 2.0])


def _counting(base):
    """A backend subclass recording the ``seq`` of every pushed entry."""
    class Counting(base):
        def __init__(self):
            super().__init__()
            self.pushed = []

        def push(self, entry):
            self.pushed.append((entry[2], entry[0]))
            super().push(entry)

    return Counting()


def _play(kinds, roots, until, backend, profiled, stepwise):
    queue = _counting(backend)
    sim = Simulator(queue=queue,
                    profiler=CallbackProfiler() if profiled else None)
    log, created = [], []

    def make(i, delay):
        _delay, priority, actions = kinds[i]
        tag = len(created)

        def fire(_ev):
            log.append((tag, sim.now))
            for action, k in actions:
                if action == "spawn":
                    if i + 1 + k < len(kinds):
                        make(i + 1 + k, kinds[i + 1 + k][0])
                else:
                    created[k % len(created)].deschedule()

        created.append(sim.call_in(delay, fire, priority=priority))

    for i, delay in roots:
        if i < len(kinds):
            make(i, delay)
    if stepwise:
        if until is not None:
            # What run(until=...) schedules, consuming the same seq.
            stop = Event(sim)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(_raise_stop)
            sim.schedule(stop, priority=URGENT, delay=until - sim.now)
            try:
                while True:
                    sim.step()
            except StopSimulation:
                pass
        try:
            while True:
                sim.step()
        except EmptySchedule:
            pass
    else:
        if until is not None:
            sim.run(until=until)
        sim.run()
    return sim, queue, log


def _raise_stop(_ev):
    raise StopSimulation(None)


@pytest.mark.parametrize("profiled", [False, True])
@pytest.mark.parametrize("backend", [HeapQueue, CalendarQueue])
@given(kinds=KINDS, roots=ROOTS, until=UNTIL)
@settings(max_examples=120, deadline=None)
def test_run_dispatches_in_step_order(backend, profiled, kinds, roots,
                                      until):
    sim, queue, log = _play(kinds, roots, until, backend, profiled,
                            stepwise=False)
    _oracle_sim, _oracle_queue, oracle = _play(
        kinds, roots, until, backend, False, stepwise=True)
    assert log == oracle
    stopped = until is not None
    assert kernel_stats(sim).events_dispatched == len(log) + stopped
    if profiled:
        assert sim.profiler.snapshot().events == len(log) + stopped
    # Preempting a batch keeps its remainder in hand: only the entries
    # left behind the raising stop callback go back to the queue.
    for (_seq, time), n in Counter(queue.pushed).items():
        assert n == 1 or (n == 2 and time == until)


@pytest.mark.parametrize("profiled", [False, True])
@pytest.mark.parametrize("backend", [HeapQueue, CalendarQueue])
def test_stop_inside_a_drained_entry_resumes_exactly(backend, profiled):
    """A drained URGENT entry stops the run: the urgent entry after it
    is still queued, the batch remainder is pushed back once, and a
    continuation run picks both up in order."""
    queue = _counting(backend)
    sim = Simulator(queue=queue,
                    profiler=CallbackProfiler() if profiled else None)
    log = []

    def first(_ev):
        log.append("first")
        sim.call_in(0.0, stop, priority=URGENT)
        sim.call_in(0.0, lambda _ev: log.append("urgent"), priority=URGENT)

    def stop(_ev):
        log.append("stop")
        sim.stop("halt")

    sim.call_in(1.0, first)
    sim.call_in(1.0, lambda _ev: log.append("second"))
    sim.call_in(1.0, lambda _ev: log.append("third"))
    assert sim.run() == "halt"
    assert log == ["first", "stop"]
    sim.run()
    assert log == ["first", "stop", "urgent", "second", "third"]
    assert kernel_stats(sim).events_dispatched == 5
    if profiled:
        assert sim.profiler.snapshot().events == 5
    assert sorted(Counter(seq for seq, _time in queue.pushed).values()) == [
        1, 1, 1, 2, 2]
