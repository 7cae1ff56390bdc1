"""Generator-based simulation processes.

A process wraps a Python generator that ``yield``\\ s :class:`Event`
objects.  When a yielded event is processed, the process is resumed with
the event's value (``gen.send``) or, for failed events, the exception is
thrown into the generator (``gen.throw``).  A process is itself an event
that triggers when the generator terminates, so processes can wait on one
another, be composed with ``&``/``|``, and be interrupted.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event, Initialize, URGENT


class Process(Event):
    """Runs a generator as a simulation process.

    Created through :meth:`Simulator.process`; triggers (as an event)
    with the generator's return value when it finishes, or fails with the
    exception that escaped it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is rescheduled immediately (urgently); the event it
        was waiting on remains pending and may be re-yielded afterwards.
        Interrupting a dead process is an error; interrupting oneself is
        also an error (raise the exception directly instead).
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Drive the generator forward with ``event``'s outcome."""
        self.sim._active_proc = self
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The caller will see the exception; mark it handled.
                    event._defused = True
                    exc = event._exc
                    if exc is None:  # pragma: no cover - defensive
                        exc = SimulationError("event failed without exception")
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.sim.schedule(self, priority=URGENT)
                break
            except BaseException as error:
                self._ok = False
                self._exc = error
                self._value = None
                self.sim.schedule(self, priority=URGENT)
                break

            if not isinstance(next_event, Event):
                # Poison the generator with a descriptive error.
                event = Event(self.sim)
                event._ok = False
                event._exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                continue

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Already processed: consume its value synchronously.
            event = next_event

        self.sim._active_proc = None

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class _Interruption(Event):
    """Internal urgent event that delivers an Interrupt into a process."""

    __slots__ = ("process",)

    def __init__(self, process: Process, cause: Any):
        super().__init__(process.sim)
        self.process = process
        self._ok = False
        self._exc = Interrupt(cause)
        self._value = None
        self._defused = True  # Interrupts are always "handled".
        self.callbacks.append(self._deliver)
        process.sim.schedule(self, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            # Died in the meantime; nothing to deliver.
            return
        # Unsubscribe from whatever the process was waiting for.
        if process._target is not None and process._target.callbacks is not None:
            try:
                process._target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        process._resume(self)
