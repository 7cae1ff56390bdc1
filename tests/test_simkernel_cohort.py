"""``Simulator.tick_in``: shared tick entries against plain ``call_in``.

Random worlds run members -- callbacks that reschedule themselves --
once through :meth:`~repro.simkernel.Simulator.tick_in` and once
through :meth:`~repro.simkernel.Simulator.call_in`.  Members vary their
delays and priorities, are born at once or later, die (and then fire as
no-ops), and leave by doing nothing, by drawing a seq or by scheduling
an event of their own.  Foreign callbacks and processes draw seqs in
between.  Every callback must run at the same time and in the same
order in both worlds, and the kernel's sequence number must end the
same, on both queue backends.
"""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import NORMAL, URGENT, Simulator

DELAYS = (0.0, 0.25, 0.5, 1.0)

members = st.fixed_dictionaries({
    "born": st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    "delay": st.sampled_from(DELAYS),
    "priority": st.sampled_from([URGENT, NORMAL, NORMAL]),
    "ticks": st.integers(1, 6),
    "leave": st.sampled_from(["quiet", "draw", "event"]),
    "leave_delay": st.sampled_from(DELAYS),
    "leave_priority": st.sampled_from([URGENT, NORMAL]),
    "dies_at": st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.5])),
})

foreign = st.fixed_dictionaries({
    "kind": st.sampled_from(["callback", "process", "reserve"]),
    "at": st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
    "priority": st.sampled_from([URGENT, NORMAL]),
    "draws": st.integers(0, 2),
})

plans = st.lists(st.one_of(members.map(lambda m: ("member", m)),
                           foreign.map(lambda f: ("foreign", f))),
                 min_size=1, max_size=14)


def world(plan, shared, queue=None):
    """Run ``plan`` with members scheduled through ``tick_in`` (when
    ``shared``) or ``call_in``; returns what must not differ."""
    sim = Simulator(queue=queue)
    schedule = sim.tick_in if shared else sim.call_in
    log = []

    def note(*what):
        log.append((sim.now,) + what)

    def member(i, spec):
        state = {"ticks": 0, "dead": False}

        def fire(_event):
            note("member", i)
            if state["dead"]:
                return
            state["ticks"] += 1
            if state["ticks"] < spec["ticks"]:
                schedule(spec["delay"], fire, spec["priority"])
                return
            leave = spec["leave"]
            if leave == "draw":
                sim.reserve_seq()
            elif leave == "event":
                # Never an URGENT push at this instant from a NORMAL
                # member: tick_in's one precondition.
                priority = spec["leave_priority"]
                if spec["leave_delay"] == 0.0:
                    priority = max(priority, spec["priority"])
                sim.call_in(spec["leave_delay"],
                            lambda _e: note("left", i), priority)

        def kill(_event):
            note("kill", i)
            state["dead"] = True

        if spec["dies_at"] is not None:
            sim.call_in(spec["dies_at"], kill)
        # Born at once, or by a callback of its own.
        if spec["born"] == 0.0:
            schedule(spec["delay"], fire, spec["priority"])
        else:
            sim.call_in(spec["born"], lambda _e: schedule(
                spec["delay"], fire, spec["priority"]))

    def other(j, spec):
        def callback(_event):
            note("foreign", j)
            for _ in range(spec["draws"]):
                sim.timeout(0.25)

        def process():
            for _ in range(spec["draws"] + 1):
                yield sim.timeout(0.25)
                note("process", j)

        if spec["kind"] == "callback":
            sim.call_in(spec["at"], callback, spec["priority"])
        elif spec["kind"] == "process":
            sim.process(process())
        else:
            sim.reserve_seq(spec["draws"] + 1)

    for k, (kind, spec) in enumerate(plan):
        (member if kind == "member" else other)(k, spec)
    sim.run(until=4.0)
    sim.run()
    return {"log": log, "seq": sim._seq, "now": sim.now}, sim._n_events


@settings(max_examples=120, deadline=None)
@given(plan=plans)
def test_tick_in_runs_exactly_what_call_in_runs(plan):
    for queue in (None, "calendar"):
        got, shared_events = world(plan, shared=True, queue=queue)
        want, plain_events = world(plan, shared=False, queue=queue)
        assert got == want, queue
        assert shared_events <= plain_events


def test_consecutive_ticks_share_one_entry_until_a_seq_is_drawn():
    sim = Simulator()
    log = []
    for name in "abc":
        sim.tick_in(1.0, lambda _e, name=name: log.append(name))
    assert len(sim.queue_backend) == 1
    sim.reserve_seq()
    sim.tick_in(1.0, lambda _e: log.append("d"))
    sim.tick_in(1.0, lambda _e: log.append("e"), URGENT)
    sim.tick_in(2.0, lambda _e: log.append("f"), URGENT)
    assert len(sim.queue_backend) == 4
    assert sim._seq == 7
    sim.run()
    assert log == ["e", "a", "b", "c", "d", "f"]
    assert sim._n_events == 4


def test_a_running_entry_takes_no_more_members():
    """A zero-delay tick drawn by the last member would sort right after
    it, but the running entry has already handed out its callbacks."""
    sim = Simulator()
    log = []

    def again(_event):
        log.append(("again", sim.now))

    def first(_event):
        log.append(("first", sim.now))
        sim.tick_in(0.0, again)

    sim.tick_in(1.0, first)
    sim.run()
    assert log == [("first", 1.0), ("again", 1.0)]
    assert sim._n_events == 2


@pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
def test_tick_in_rejects_what_call_in_rejects(delay):
    # At this clock a delay of -1.0 lands on the pending tick's time.
    sim = Simulator(initial_time=1e17)
    sim.tick_in(0.0, lambda _e: None)
    with pytest.raises(ValueError):
        sim.tick_in(delay, lambda _e: None)


def test_reserve_seq_returns_the_first_of_a_block():
    sim = Simulator()
    assert sim.reserve_seq() == 1
    assert sim.reserve_seq(3) == 2
    assert sim._seq == 4
    assert sim.reserve_seq() == 5


# -- the grep lint -------------------------------------------------------


def test_no_module_outside_the_kernel_touches_the_simulator_seq():
    """Only ``repro.simkernel`` reads or writes ``Simulator._seq``;
    every other layer draws seqs through ``reserve_seq``, ``call_in``,
    ``tick_in`` and the like.  ``EventLog`` keeps a ``_seq`` of its
    own, which its methods may use as ``self._seq``."""
    pkg = Path(__file__).resolve().parent.parent / "src" / "repro"
    touch = re.compile(r"\._seq\b")
    own = re.compile(r"\bself\._seq\b")
    offenders = []
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg).as_posix()
        if rel.startswith("simkernel/"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if rel == "controlplane/eventlog.py":
                code = own.sub("", code)
            if touch.search(code):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert offenders == [], \
        "Simulator._seq touched outside repro.simkernel:\n" + \
        "\n".join(offenders)
