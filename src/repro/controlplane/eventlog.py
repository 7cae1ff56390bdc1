"""The durable event log: the control plane's single source of truth.

Every state change the control plane makes — job and lease transitions,
tenant registrations, usage charges, spot enrollments and outcomes —
lands here as one :class:`StateEvent` with a monotone sequence number
and the simulation time it happened at.  The in-memory list *is* the
log; :meth:`EventLog.dump_jsonl` snapshots it to one-JSON-object-per-
line (sorted keys, exact float round-trip), :meth:`EventLog.load_jsonl`
reads a snapshot back, and :func:`repro.controlplane.recovery.rebuild`
folds any event sequence into the control-plane state it implies.

Discovery follows the tracer/recorder idiom: the
:class:`~repro.controlplane.plane.ControlPlane` installs one log on the
simulator and every instrumented module finds it with
:func:`eventlog_of`, which returns the no-op :data:`NULL_LOG` when
event sourcing is off — validation still runs, recording costs nothing.

Each append also feeds the obs spine: a
``controlplane.transitions{entity,from,to}`` counter tick and, when a
tracer is installed, a zero-duration span on the ``"eventlog"`` track,
so the whole lifecycle is visible in Perfetto next to the work it
describes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..metrics import recorder_of
from ..obs.trace import tracer_of


@dataclass(frozen=True, slots=True)
class StateEvent:
    """One committed fact about a control-plane entity.

    ``kind`` names the entity family (``"job"``, ``"lease"``,
    ``"tenant"``, ``"spot"``, ``"heal"``), ``entity`` its id (job and
    lease ids are ints; tenants and spot VMs use names).  ``frm`` is
    None for birth events (tenant registered, lease granted).  Slotted:
    a run keeps every event resident, so none carries a ``__dict__``.
    """

    seq: int
    time: float
    kind: str
    entity: Union[int, str]
    frm: Optional[str]
    to: str
    cause: str = ""
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "time": self.time, "kind": self.kind,
             "entity": self.entity, "from": self.frm, "to": self.to,
             "cause": self.cause, "detail": self.detail},
            sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "StateEvent":
        doc = json.loads(line)
        return cls(seq=doc["seq"], time=doc["time"], kind=doc["kind"],
                   entity=doc["entity"], frm=doc["from"], to=doc["to"],
                   cause=doc.get("cause", ""),
                   detail=doc.get("detail", {}))


class EventLogError(Exception):
    """Corrupt or non-monotone event sequence."""


class EventLog:
    """Append-only, replayable record of control-plane state changes.

    Parameters
    ----------
    sim:
        The simulator whose clock stamps events.
    events:
        Optional history to prime the log with (crash recovery loads a
        snapshot, then the restarted plane keeps appending to the same
        sequence).
    path:
        Optional write-through JSONL file: every append is written (and
        flushed) immediately, so the log survives the process.
    """

    def __init__(self, sim, events: Iterable[StateEvent] = (),
                 path=None):
        self.sim = sim
        self.events: List[StateEvent] = list(events)
        validate_events(self.events)
        self._seq = self.events[-1].seq if self.events else 0
        self._subscribers: List[Callable[[StateEvent], None]] = []
        #: ``(recorder, kind, from, to)`` -> its bound
        #: ``controlplane.transitions`` counter.
        self._transitions: Dict[tuple, Any] = {}
        self._fh = None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")

    # -- discovery (tracer_of idiom) ------------------------------------

    def install(self) -> "EventLog":
        """Make this the simulator's event log (what :func:`eventlog_of`
        finds); returns self for chaining."""
        self.sim._eventlog = self
        return self

    # -- append ----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self._seq

    def append(self, kind: str, entity: Union[int, str], to: str,
               frm: Optional[str] = None, cause: str = "",
               **detail) -> StateEvent:
        """Commit one event at ``sim.now`` with the next sequence
        number; notifies subscribers and the obs spine."""
        if self.events and self.sim.now < self.events[-1].time:
            raise EventLogError(
                f"event time {self.sim.now} precedes last logged time "
                f"{self.events[-1].time}")
        self._seq += 1
        event = StateEvent(seq=self._seq, time=self.sim.now, kind=kind,
                           entity=entity, frm=frm, to=to, cause=cause,
                           detail=detail)
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(event.to_json() + "\n")
            self._fh.flush()
        metrics = recorder_of(self.sim)
        if metrics is not None:
            key = (metrics, kind, frm, to)
            counter = self._transitions.get(key)
            if counter is None:
                counter = self._transitions[key] = metrics.counter(
                    "controlplane.transitions",
                    labels={"entity": kind,
                            "from": frm if frm is not None else "-",
                            "to": to})
            counter.inc()
        tracer = tracer_of(self.sim)
        if tracer.enabled:
            tracer.start(f"{kind}:{entity}:{to}", track="eventlog",
                         seq=event.seq, cause=cause,
                         **{"from": frm if frm is not None else "-"}).end()
        for fn in self._subscribers:
            fn(event)
        return event

    def subscribe(self, fn: Callable[[StateEvent], None]) -> None:
        """Call ``fn(event)`` after every append (tests snapshot state
        here; a durability layer would write through)."""
        self._subscribers.append(fn)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def since(self, seq: int) -> List[StateEvent]:
        """Events strictly after ``seq`` (incremental catch-up)."""
        return [e for e in self.events if e.seq > seq]

    # -- snapshot / replay ----------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.events)

    def dump_jsonl(self, path) -> int:
        """Snapshot the whole log to ``path``; returns the event
        count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self.events)

    @staticmethod
    def load_jsonl(path) -> List[StateEvent]:
        """Read a snapshot back, validating schema and ordering."""
        events = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(StateEvent.from_json(line))
        validate_events(events)
        return events

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self):
        return f"<EventLog events={len(self.events)} seq={self._seq}>"


class _NullLog:
    """The disabled log: state machines still validate transitions, but
    nothing is recorded."""

    events: tuple = ()
    last_seq = 0

    def append(self, kind, entity, to, frm=None, cause="", **detail):
        return None

    def subscribe(self, fn):
        pass

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def __repr__(self):
        return "<NullLog>"


#: The shared disabled log handed out by :func:`eventlog_of`.
NULL_LOG = _NullLog()


def eventlog_of(sim) -> EventLog:
    """The simulator's installed event log, or :data:`NULL_LOG`."""
    return getattr(sim, "_eventlog", NULL_LOG)


def validate_events(events: Iterable[StateEvent]) -> int:
    """Check replay invariants: strictly increasing ``seq``, monotone
    non-decreasing ``time``.  Returns the event count; raises
    :class:`EventLogError` on the first violation.  (CI's replay-smoke
    job runs this over the dumped JSONL.)"""
    last_seq = 0
    last_time = float("-inf")
    count = 0
    for event in events:
        if event.seq <= last_seq:
            raise EventLogError(
                f"seq {event.seq} not after {last_seq} (duplicate or "
                f"out-of-order delivery)")
        if event.time < last_time:
            raise EventLogError(
                f"event #{event.seq} time {event.time} precedes "
                f"{last_time}")
        last_seq, last_time = event.seq, event.time
        count += 1
    return count
