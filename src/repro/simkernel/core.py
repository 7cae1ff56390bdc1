"""The simulator: event queue, clock and run loop."""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, NORMAL, Timeout, URGENT
from .process import Process
from .queues import make_queue

Infinity = float("inf")


class _NullProfiler:
    """The inert default profiler.

    The dispatch loop reads exactly one attribute (``_enabled``) per
    batch when this is installed, so an unprofiled simulation pays
    nothing per event.  The real implementation lives in
    :mod:`repro.obs.profile` (:class:`~repro.obs.profile.CallbackProfiler`);
    this sentinel only has to answer "no" cheaply.
    """

    __slots__ = ()

    sim = None
    _enabled = False
    enabled = False

    def snapshot(self):
        """No samples: the null profiler never records."""
        return None

    def reset(self) -> None:
        pass

    def __repr__(self):
        return "<NullProfiler>"


#: The shared do-nothing profiler (also re-exported as
#: ``repro.obs.profile.NULL_PROFILER``).
NULL_PROFILER = _NullProfiler()


class Simulator:
    """A discrete-event simulator with a floating-point clock.

    The simulator owns an event queue ordered by ``(time, priority,
    sequence)``.  Simulation entities are generator-based
    :class:`~repro.simkernel.process.Process` objects created with
    :meth:`process`; they advance time by yielding :meth:`timeout` events
    and coordinate by yielding arbitrary events.

    Parameters
    ----------
    initial_time:
        Where the clock starts.
    queue:
        Event-queue backend: ``"heap"`` (default, the reference binary
        heap), ``"calendar"`` (bucketed calendar tuned for
        timer-dominated runs), or a pre-built backend instance from
        :mod:`repro.simkernel.queues`.  Every backend delivers events
        in the identical total order, so same-seed runs are
        byte-identical regardless of backend.
    profiler:
        A callback-site profiler (see
        :class:`~repro.obs.profile.CallbackProfiler`) attributing
        wall-clock self-time and event counts per callback site from
        inside the batch-dispatch loop.  Defaults to the zero-cost
        :data:`NULL_PROFILER`; profiling never touches simulated time,
        so same-seed runs are byte-identical with it on or off.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim, results):
    ...     yield sim.timeout(5)
    ...     results.append(sim.now)
    >>> results = []
    >>> _ = sim.process(hello(sim, results))
    >>> sim.run()
    >>> results
    [5.0]
    """

    def __init__(self, initial_time: float = 0.0, queue=None,
                 profiler=None):
        self._now = float(initial_time)
        self._queue = make_queue(queue)
        self._seq = 0
        self._active_proc: Optional[Process] = None
        # Batch-preemption tracking: a push can only sort before the
        # rest of the running batch when it lands at the current instant
        # with a more urgent priority; schedule() flags exactly that.
        self._batch_priority = URGENT
        self._preempted = False
        self._profiler = NULL_PROFILER
        if profiler is not None:
            self.set_profiler(profiler)
        # Kernel self-accounting (cheap: updated once per *batch*, not
        # per event) — the raw feed for KernelStats snapshots.
        self._n_events = 0
        self._n_batches = 0
        self._n_preemptions = 0
        self._max_batch = 0

    # -- clock & introspection ------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def queue_backend(self):
        """The event-queue backend instance (read-only introspection)."""
        return self._queue

    @property
    def profiler(self):
        """The installed profiler (:data:`NULL_PROFILER` by default)."""
        return self._profiler

    def set_profiler(self, profiler) -> None:
        """Install ``profiler`` (or :data:`NULL_PROFILER` for ``None``).

        The profiler takes effect at the next dispatched batch; install
        it between runs, not from inside a callback.  It is handed this
        simulator via its ``sim`` attribute when it wants one.
        """
        self._profiler = NULL_PROFILER if profiler is None else profiler
        if (self._profiler is not NULL_PROFILER
                and getattr(self._profiler, "sim", None) is None):
            try:
                self._profiler.sim = self
            except AttributeError:  # read-only / slotted profilers
                pass

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        entry = self._queue.peek()
        return entry[0] if entry is not None else Infinity

    # -- scheduling ------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue ``event`` for processing after ``delay`` time units.

        ``delay`` must be finite and non-negative: a NaN or infinite
        delay would silently corrupt the queue ordering (NaN compares
        false against everything), so both are rejected here.  It is
        coerced to a Python ``float`` so NumPy scalars never leak into
        the clock.
        """
        delay = float(delay)
        if not 0.0 <= delay < Infinity:
            raise ValueError(
                f"delay must be finite and non-negative, got {delay}")
        self._seq += 1
        self._queue.push((self._now + delay, priority, self._seq, event))
        # Preemption must match the entry's actual landing time: a tiny
        # positive delay can be absorbed by float addition at large
        # clock values, landing the entry at the current instant.
        if self._now + delay == self._now and priority < self._batch_priority:
            self._preempted = True

    def call_in(self, delay: float, fn, priority: int = NORMAL) -> Event:
        """Schedule a bare callback: ``fn(event)`` runs after ``delay``.

        Cheaper than a :class:`Timeout` plus a manual
        ``callbacks.append`` and far cheaper than a process for
        fire-and-forget timers (flow completions, batched recomputes).
        The returned event supports :meth:`Event.deschedule` for lazy
        cancellation.
        """
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks.append(fn)
        self.schedule(event, priority, delay)
        return event

    def _note_descheduled(self) -> None:
        """An event somewhere in the queue was lazily cancelled."""
        self._queue.note_descheduled()

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Condition satisfied when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Condition satisfied when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------

    def _pop_next(self):
        """Pop the next live entry, dropping stale (descheduled) entries
        exactly once on the way — the single skip loop shared by
        :meth:`step` and batch dispatch (peek prunes through the same
        backend path)."""
        entry = self._queue.pop()
        if entry is None:
            raise EmptySchedule("event queue is empty")
        return entry

    def _dispatch(self, event: Event) -> None:
        """Run one popped event's callbacks (the kernel's inner loop)."""
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} was scheduled twice")
        for callback in callbacks:
            callback(event)

        if event._ok is False and not event._defused:
            # An unhandled failure crashes the simulation, loudly.
            raise event._exc

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If there is nothing left to process.
        """
        entry = self._pop_next()
        self._now = entry[0]
        self._n_events += 1
        self._dispatch(entry[3])

    def _drain_urgent(self, dispatch) -> None:
        """Run, in hand, every entry that sorts before the batch remainder.

        Called when a batch member scheduled an entry at the current
        instant with a more urgent priority than the running batch.
        Such entries pop one at a time in key order — including the
        ones they schedule in turn — while the undispatched remainder of
        the batch waits where it is: the remainder carries a less urgent
        priority, so everything drained here sorts before it, and
        same-priority entries scheduled meanwhile carry newer seqs, so
        they still follow it.  ``dispatch`` runs one event (plain or
        profiled).  An exception leaves the entries not yet popped in
        the queue.
        """
        queue = self._queue
        now = self._now
        priority = self._batch_priority
        while True:
            head = queue.peek()
            if head is None or head[0] != now or head[1] >= priority:
                return
            queue.pop()
            self._n_events += 1
            dispatch(head[3])

    def _profiled_dispatch(self, event: Event) -> None:
        """:meth:`_dispatch` with wall-clock attribution per callback
        site, used for every event of a batch that started profiled.

        The key trick keeping this affordable on a sub-microsecond
        dispatch loop: consecutive dispatches of the *same callback
        object* (the storm shape — one closure ticking thousands of
        times) fold into one run on the profiler, counted with a single
        identity check; the wall clock is read only when the callback
        identity changes, and each reading closes the whole run since
        the previous one.
        """
        prof = self._profiler
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} was scheduled twice")
        for callback in callbacks:
            if callback is not prof._last_cb:
                # Close the previous run *before* a new site starts, so
                # its time is never billed to its predecessor and a
                # callback that raises is still counted.
                prof._close_run(callback)
            prof._run_count += 1
            callback(event)

        if event._ok is False and not event._defused:
            raise event._exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a number — run until the clock
            reaches it (events at exactly that time are not processed);
            an :class:`Event` — run until it is processed and return its
            value.

        Notes
        -----
        The run loop dispatches events in **batches**: one backend pop
        lifts the whole run of events sharing the head's ``(time,
        priority)``, so a coalesced storm (URGENT flow recomputes, tick-
        aligned timers) stops paying one heap percolation per event.
        Dispatch order is exactly the per-event order of :meth:`step`:
        if a callback schedules something that must run *before* the
        rest of the batch (an URGENT event at the current instant),
        those entries are popped and dispatched in hand
        (:meth:`_drain_urgent`) while the remainder waits, then the
        remainder resumes.  Only a raising callback sends the
        undispatched remainder back to the queue.

        Profiling rides the same loop: whether a batch dispatches
        through :meth:`_dispatch` or :meth:`_profiled_dispatch` is
        decided once, when the batch starts, from the profiler's
        ``_enabled`` flag; a profiled batch is opened and closed on the
        profiler around its dispatch.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed.
                    return stop_event.value
                stop_event.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                self.schedule(stop_event, priority=URGENT, delay=at - self._now)
                stop_event.callbacks.append(_stop_simulation)

        queue = self._queue
        batch: list = []
        try:
            while True:
                batch.clear()
                if not queue.pop_batch(batch):
                    raise EmptySchedule("event queue is empty")
                self._now = batch[0][0]
                self._batch_priority = batch[0][1]
                i, n = 0, len(batch)
                # The only per-batch choice: plain or profiled dispatch.
                # The null profiler costs this one attribute read.
                prof = self._profiler
                if prof._enabled:
                    prof._open_batch(n, self._n_events)
                    dispatch = self._profiled_dispatch
                else:
                    prof = None
                    dispatch = self._dispatch
                # Kernel self-accounting, once per batch so the null
                # path stays effectively free per event: the whole batch
                # is counted up front, and entries that never run
                # (descheduled, or re-pushed after a raise) are taken
                # back off.
                self._n_batches += 1
                self._n_events += n
                if n > self._max_batch:
                    self._max_batch = n
                try:
                    while i < n:
                        event = batch[i][3]
                        i += 1
                        if event._descheduled:
                            # Cancelled by an earlier event of this batch.
                            self._n_events -= 1
                            continue
                        self._preempted = False
                        dispatch(event)
                        if self._preempted and i < n:
                            # The callback scheduled an event at this
                            # instant with a more urgent priority: it
                            # sorts before the rest of the batch, so run
                            # it (and its followers) first, in hand.
                            self._n_preemptions += 1
                            if prof is not None:
                                prof._note_preemption(n - i)
                            self._drain_urgent(dispatch)
                except BaseException:
                    # A callback raised (StopSimulation, a crash, an
                    # undefused failure): the undispatched remainder
                    # must survive for any continuation run.
                    self._n_events -= n - i
                    for j in range(i, n):
                        queue.push(batch[j])
                    raise
                finally:
                    if prof is not None:
                        prof._close_batch(self._n_events)
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                ) from None
            if until is not None and not isinstance(until, Event):
                # Advance the clock to the requested horizon.
                self._now = max(self._now, float(until))
            return None

    def stop(self, value: Any = None) -> None:
        """Abort :meth:`run` from inside a callback or process."""
        raise StopSimulation(value)

    def __repr__(self) -> str:
        return (f"<Simulator now={self._now} queued={len(self._queue)} "
                f"backend={getattr(self._queue, 'name', '?')}>")


def _stop_simulation(event: Event) -> None:
    if event._ok is False:
        event._defused = True
        raise event._exc
    raise StopSimulation(event._value)
