"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is the unit of coordination: processes yield events and
are resumed when the event is *processed* by the simulator.  Events move
through three states:

* **pending** — created, not yet triggered;
* **triggered** — has a value (or an exception) and sits in the event
  queue;
* **processed** — its callbacks have run.

Events compose with ``&`` (all-of) and ``|`` (any-of), mirroring the
condition events of mainstream DES frameworks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from .errors import SimulationError

#: Sentinel for "no value yet".
PENDING = object()

#: Scheduling priorities.  Lower sorts first at equal simulation time.
URGENT = 0
NORMAL = 1


class Event:
    """A single event that may succeed with a value or fail with an error.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.simkernel.core.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_ok", "_defused",
                 "_descheduled")

    def __init__(self, sim):
        self.sim = sim
        #: Callables invoked (in order) when the event is processed; set
        #: to ``None`` once processing is complete.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._exc: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        self._defused = False
        self._descheduled = False

    def deschedule(self) -> None:
        """Withdraw a queued event: it will be silently dropped.

        The simulator skips descheduled events without advancing the
        clock or running callbacks.  Intended for internal timers whose
        deadline was superseded (e.g. flow-completion estimates).

        Cancellation is lazy — the queue entry stays put until it
        surfaces — but the queue backend is notified so it can compact
        once dead entries dominate.
        """
        if not self._descheduled:
            self._descheduled = True
            self.sim._note_descheduled()

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception); raises if still pending."""
        if not self.triggered:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._exc if self._exc is not None else self._value

    @property
    def defused(self) -> bool:
        """True if a failure of this event has been handled by someone."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._exc = exception
        self._value = None
        self.sim.schedule(self, priority=NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._exc)

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.sim, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.sim, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, priority=NORMAL, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that starts a process on the next step."""

    __slots__ = ()

    def __init__(self, sim, process):
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim.schedule(self, priority=URGENT)


class ConditionValue:
    """Ordered mapping of the child events a condition observed triggered.

    Behaves like a read-only dict keyed by event; iteration yields events
    in the order they were passed to the condition.
    """

    __slots__ = ("events",)

    def __init__(self, events: List[Event]):
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e.value for e in self.events)

    def items(self):
        return ((e, e.value) for e in self.events)

    def todict(self) -> dict:
        """Return a plain ``{event: value}`` dict."""
        return {e: e.value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Event that fires when a predicate over child events is satisfied.

    The predicate ``evaluate(events, count)`` receives the child events
    and the number already triggered OK.  :meth:`all_events` and
    :meth:`any_events` give the usual ``&`` / ``|`` semantics.  Nested
    conditions built with the same operators are flattened so that
    ``(a & b) & c`` behaves like ``AllOf([a, b, c])``.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, sim, evaluate: Callable[[List[Event], int], bool],
                 events: Iterable[Event]):
        super().__init__(sim)
        self._evaluate = evaluate
        self._events: List[Event] = list(events)
        self._count = 0

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")

        # Immediately evaluate (may already be satisfiable with 0 events).
        if not self._events and not self.triggered:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.callbacks is None:
                # Already processed.
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> ConditionValue:
        """Gather triggered leaf events, flattening nested conditions.

        A depth-first walk in child order over an explicit stack of
        iterators: a recursive closure would make a reference cycle
        (the function and its own cell) on every success."""
        leaves: List[Event] = []
        stack = [iter(self._events)]
        while stack:
            for e in stack[-1]:
                if isinstance(e, Condition) and e._evaluate in (
                    Condition.all_events, Condition.any_events
                ):
                    stack.append(iter(e._events))
                    break
                if e.callbacks is None and e._ok:
                    # Only children whose processing has completed (or is
                    # in progress right now) count as observed; a Timeout
                    # is "triggered" from creation but has not happened
                    # until the clock reaches it.
                    leaves.append(e)
            else:
                stack.pop()
        return ConditionValue(leaves)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            # A failing child fails the whole condition.
            event._defused = True
            self.fail(event._exc)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """Predicate: every child event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """Predicate: at least one child event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition satisfied once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim, Condition.all_events, events)


class AnyOf(Condition):
    """Condition satisfied once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim, Condition.any_events, events)
