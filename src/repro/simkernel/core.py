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
        # Batch-preemption tracking: the ``(priority, seq)`` of the
        # in-hand batch's last entry, and a flag raised by any push that
        # lands at the current instant sorting before it (see run()).
        self._batch_priority = URGENT
        self._batch_seq = -1
        self._preempted = False
        # The entry being dispatched (the last one, between runs):
        # schedule_at() refuses keys the kernel has already passed.
        self._dispatching = (-Infinity, URGENT, -1, None)
        # The newest tick_in() entry, its (time, priority) and the seq
        # of its newest member.
        self._ticks: Optional[Event] = None
        self._ticks_key = None
        self._ticks_seq = -1
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
        # clock values, landing the entry at the current instant.  A
        # fresh seq is newer than every seq in the batch, so the
        # full-key test of schedule_at() reduces to the priority here.
        if self._now + delay == self._now and priority < self._batch_priority:
            self._preempted = True

    def reserve_seq(self, n: int = 1) -> int:
        """Draw the next ``n`` sequence numbers without queueing
        anything; returns the first of them.

        An entry pushed later with :meth:`schedule_at` under a reserved
        seq sorts exactly where it would have had it been scheduled now,
        so a caller can keep its own pending set off the queue and hand
        the kernel only the entry that must fire next.
        """
        first = self._seq + 1
        self._seq += n
        return first

    def schedule_at(self, event: Event, time: float, seq: int) -> None:
        """Queue ``event`` under exactly the key ``(time, NORMAL, seq)``.

        ``seq`` comes from :meth:`reserve_seq`.  The key must not sort
        before the entry being dispatched (nor lie in the past): the
        kernel has already passed it, so the entry would run out of
        order.  A key that lands inside the rest of the running batch
        preempts it like an URGENT push does (see :meth:`run`).
        """
        time = float(time)
        now = self._now
        cur = self._dispatching
        if not now <= time < Infinity or (
                time == cur[0] and (NORMAL, seq) < (cur[1], cur[2])):
            raise ValueError(
                f"cannot queue key ({time}, {NORMAL}, {seq}) at now="
                f"{now}: it must be finite and sort after the entry being "
                f"dispatched ({cur[0]}, {cur[1]}, {cur[2]})")
        self._queue.push((time, NORMAL, seq, event))
        if time == now and (NORMAL, seq) < (self._batch_priority,
                                            self._batch_seq):
            self._preempted = True

    def call_in(self, delay: float, fn, priority: int = NORMAL) -> Event:
        """Schedule a bare callback: ``fn(event)`` runs after ``delay``.

        Cheaper than a :class:`Timeout` plus a manual
        ``callbacks.append`` and far cheaper than a process for
        fire-and-forget timers (batched recomputes, latency hops).
        The returned event supports :meth:`Event.deschedule` for lazy
        cancellation.
        """
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks.append(fn)
        self.schedule(event, priority, delay)
        return event

    def tick_in(self, delay: float, fn, priority: int = NORMAL) -> None:
        """Run ``fn(event)`` after ``delay``, under exactly the key
        ``(now + delay, priority, seq)`` that :meth:`call_in` gives it,
        sharing one kernel entry with the ticks it is in phase with.

        Consecutive calls due at one ``(time, priority)`` with no seq
        drawn in between hold consecutive seqs, so no other entry can
        ever sort between them.  They share the first call's kernel
        entry, whose callbacks run in call order: entities ticking in
        phase (guest dirtiers, job runners) cost one event per instant,
        not one per entity.  An entry that has started running takes no
        more members.

        **Exact** under one precondition: a member queues nothing that
        sorts before the next member at that instant -- an URGENT push
        at the current instant from a NORMAL member, or a
        :meth:`schedule_at` under an older seq -- since that entry would
        run after the whole shared entry, not between the two members.  Members cannot be cancelled: a
        member with nothing left to do returns at once.  As with any
        event's callbacks, a member that raises drops the ones after it.
        """
        seq = self._seq
        if (seq == self._ticks_seq and self._ticks.callbacks is not None
                and self._ticks_key == (self._now + delay, priority)
                and delay >= 0.0):
            self._seq = self._ticks_seq = seq + 1
            self._ticks.callbacks.append(fn)
            return
        self._ticks = self.call_in(delay, fn, priority)
        self._ticks_key = (self._now + float(delay), priority)
        self._ticks_seq = self._seq

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
        self._dispatching = entry
        self._dispatch(entry[3])

    def _drain(self, dispatch, prof, batch: list, i: int) -> None:
        """Run, in hand, every queued entry that sorts before ``batch[i]``.

        Called when a push landed inside the undispatched remainder
        ``batch[i:]`` of the running batch: an entry at the current
        instant with a more urgent priority, or one queued through
        :meth:`schedule_at` under an older reserved seq.  Queue heads
        pop one at a time in key order — including the entries they
        schedule in turn — while the remainder waits where it is.
        Afterwards the flag stays raised while the queue head still
        sorts inside the remainder (between ``batch[i]`` and
        ``batch[-1]``), so the next batch entry is checked the same
        way.  ``dispatch`` runs one event (plain or profiled) and
        ``prof`` is the batch's profiler, or ``None``.  An exception
        leaves the entries not yet popped in the queue.
        """
        queue = self._queue
        after = batch[i]
        ran = 0
        while True:
            head = queue.peek()
            if head is None or after < head:
                break
            queue.pop()
            ran += 1
            self._n_events += 1
            self._dispatching = head
            dispatch(head[3])
        if ran:
            self._n_preemptions += 1
            if prof is not None:
                prof._note_preemption(len(batch) - i)
        self._preempted = head is not None and head < batch[-1]

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
        Dispatch order is exactly the per-event order of :meth:`step`,
        by one full-key rule: a push landing at the current instant
        whose ``(priority, seq)`` sorts below the batch's last entry
        (an URGENT event, or a :meth:`schedule_at` entry with an older
        reserved seq) flags a preemption, and before each remaining
        batch entry the queue heads sorting ahead of it are popped and
        dispatched in hand (:meth:`_drain`) while the remainder waits.
        Only a raising callback sends the undispatched remainder back
        to the queue.

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
                self._batch_seq = batch[-1][2]
                self._preempted = False
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
                        if self._preempted:
                            # A push landed inside the remainder: run
                            # whatever sorts before batch[i] first, in
                            # hand.
                            self._drain(dispatch, prof, batch, i)
                        entry = batch[i]
                        i += 1
                        event = entry[3]
                        if event._descheduled:
                            # Cancelled by an earlier event of this batch.
                            self._n_events -= 1
                            continue
                        self._dispatching = entry
                        dispatch(event)
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
