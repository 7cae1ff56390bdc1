"""Batch dispatch (``run``) against per-event dispatch (``step``).

``Simulator.step`` pops and runs one entry at a time, so its order is
the kernel's total order by definition.  ``run`` lifts whole
same-``(time, priority)`` batches and drains in hand every entry pushed
mid-batch that sorts before the remainder; this suite generates
same-instant schedules — NORMAL and URGENT entries, entries that
schedule further entries at the current instant or later, entries that
reserve their seq when spawned and are queued later through
``schedule_at`` (landing inside a running batch when their seq is older
than its tail), mid-batch cancellations and one ``run(until=...)``
stop — and requires ``run`` to reproduce the ``step`` order exactly, on
both queue backends, with the profiler on and off.  A wrapped ``push``
also checks that preempting a batch never sends one of its entries back
to the queue.
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


def _with_reserved(kind):
    """A kind with a fourth field, ``reserved``: such an entry draws its
    seq when spawned but is only queued (through ``schedule_at``, hence
    at NORMAL priority) when a firing entry releases it."""
    delay, priority, actions, reserved = kind
    return delay, NORMAL if reserved else priority, actions, reserved


#: KINDS plus the reserved flag and a third action, ("release", _):
#: queue every held reserved entry whose key sorts after the firing
#: entry's own.
RESERVED_KINDS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0]),
        st.sampled_from([URGENT, NORMAL]),
        st.lists(st.tuples(st.sampled_from(["spawn", "spawn", "cancel",
                                            "release"]),
                           st.integers(0, 40)), max_size=3),
        st.booleans(),
    ).map(_with_reserved),
    min_size=1, max_size=12,
)
#: Kinds for one same-instant batch, run with every kind a root at t=1
#: (``roots=None``): a plain entry that fires before reserved ones older
#: than the batch tail releases them into the middle of the running
#: batch.
BATCH_KINDS = st.lists(
    st.tuples(
        st.just(0.0),
        st.sampled_from([NORMAL, NORMAL, URGENT]),
        st.lists(st.tuples(st.sampled_from(["release", "release", "spawn",
                                            "cancel"]),
                           st.integers(0, 40)), max_size=2),
        st.booleans(),
    ).map(_with_reserved),
    min_size=2, max_size=10,
)
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
    log, created, held = [], [], []

    def make(i, delay):
        _delay, priority, actions = kinds[i][:3]
        # Plain KINDS carry no fourth field: they never reserve.
        reserved = kinds[i][3:] == (True,)
        tag = len(created)
        key = None

        def fire(_ev):
            log.append((tag, sim.now))
            for action, k in actions:
                if action == "spawn":
                    if i + 1 + k < len(kinds):
                        make(i + 1 + k, kinds[i + 1 + k][0])
                elif action == "cancel":
                    created[k % len(created)].deschedule()
                else:
                    # Only keys sorting after the entry being dispatched
                    # may be queued: schedule_at's precondition.
                    for event, at in [h for h in held if h[1] > key]:
                        held.remove((event, at))
                        sim.schedule_at(event, at[0], at[2])

        if reserved:
            event = Event(sim)
            event._ok = True
            event._value = None
            event.callbacks.append(fire)
            key = (sim.now + delay, NORMAL, sim.reserve_seq())
            held.append((event, key))
        else:
            event = sim.call_in(delay, fire, priority=priority)
            key = (sim.now + delay, priority, sim._seq)
        created.append(event)

    if roots is None:
        roots = [(i, 1.0) for i in range(len(kinds))]
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


def _check_run_matches_step(kinds, roots, until, backend, profiled):
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
@given(kinds=KINDS, roots=ROOTS, until=UNTIL)
@settings(max_examples=120, deadline=None)
def test_run_dispatches_in_step_order(backend, profiled, kinds, roots,
                                      until):
    _check_run_matches_step(kinds, roots, until, backend, profiled)


@pytest.mark.parametrize("profiled", [False, True])
@pytest.mark.parametrize("backend", [HeapQueue, CalendarQueue])
@given(kinds_roots=st.one_of(st.tuples(RESERVED_KINDS, ROOTS),
                            st.tuples(BATCH_KINDS, st.none())),
       until=UNTIL)
@settings(max_examples=200, deadline=None)
def test_run_dispatches_reserved_entries_in_step_order(backend, profiled,
                                                       kinds_roots, until):
    kinds, roots = kinds_roots
    _check_run_matches_step(kinds, roots, until, backend, profiled)


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


def _held(sim, log, tag, delay):
    """A bare callback event with a reserved seq, not yet queued."""
    event = Event(sim)
    event._ok = True
    event._value = None
    event.callbacks.append(lambda _ev: log.append(tag))
    return event, sim.now + delay, sim.reserve_seq()


@pytest.mark.parametrize("profiled", [False, True])
@pytest.mark.parametrize("backend", [HeapQueue, CalendarQueue])
def test_reserved_entry_waits_for_its_place_inside_the_batch(backend,
                                                              profiled):
    """A reserved entry queued mid-batch runs exactly where its seq puts
    it: after ``b`` (older) but before ``c`` (newer).  The preemption
    flag survives ``b``'s dispatch because the queue head still sorts
    inside the remainder, and the batch is never pushed back."""
    queue = _counting(backend)
    sim = Simulator(queue=queue,
                    profiler=CallbackProfiler() if profiled else None)
    log = []

    def release(_ev):
        log.append("a")
        sim.schedule_at(*held)

    sim.call_in(1.0, release)
    sim.call_in(1.0, lambda _ev: log.append("b"))
    held = _held(sim, log, "r", 1.0)
    sim.call_in(1.0, lambda _ev: log.append("c"))
    sim.run()
    assert log == ["a", "b", "r", "c"]
    ks = kernel_stats(sim)
    assert ks.events_dispatched == 4
    assert ks.batches_dispatched == 1
    assert ks.preemptions == 1
    if profiled:
        snap = sim.profiler.snapshot()
        assert snap.events == 4
        assert snap.preemptions == 1
        assert snap.preempted_entries == 1
    assert sorted(Counter(seq for seq, _time in queue.pushed).values()) == [
        1, 1, 1, 1]


@pytest.mark.parametrize("backend", ["heap", "calendar"])
def test_schedule_at_keeps_the_exact_key(backend):
    sim = Simulator(queue=backend)
    log = []
    first = _held(sim, log, "first", 2.0)
    sim.call_in(2.0, lambda _ev: log.append("plain"))
    second = _held(sim, log, "second", 2.0)
    for held in (second, first):
        sim.schedule_at(*held)
    sim.run()
    assert log == ["first", "plain", "second"]
    assert sim.now == 2.0


def test_schedule_at_rejects_a_time_in_the_past():
    sim = Simulator()
    event, _at, seq = _held(sim, [], "late", 0.0)
    sim.run(until=5.0)
    with pytest.raises(ValueError, match="sort after the entry"):
        sim.schedule_at(event, 4.0, seq)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sim.schedule_at(event, bad, seq)


def test_schedule_at_rejects_a_key_before_the_entry_being_dispatched():
    """Entry ``a`` is dispatching at (1, NORMAL, seq_a); a key at the
    same instant with an older seq has already been passed by the
    kernel."""
    sim = Simulator()
    log, errors = [], []
    old = _held(sim, log, "old", 1.0)

    def late(_ev):
        log.append("a")
        with pytest.raises(ValueError, match="sort after the entry"):
            sim.schedule_at(*old)
        errors.append(True)
        # A fresh reservation at the same instant is still ahead.
        sim.schedule_at(*_held(sim, log, "fresh", 0.0))

    sim.call_in(1.0, late)
    sim.run()
    assert errors == [True]
    assert log == ["a", "fresh"]
