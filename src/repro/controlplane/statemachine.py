"""Typed state machines for control-plane entities.

Every job and lease state change in :mod:`repro.controlplane` goes
through :func:`transition` — the *only* place allowed to assign
``entity.state`` (a grep-lint test enforces this).  The helper

1. validates the move against the entity's declared machine
   (:data:`JOB_MACHINE` / :data:`LEASE_MACHINE`), raising
   :class:`TransitionError` on an illegal edge;
2. mutates the entity;
3. commits a :class:`~repro.controlplane.eventlog.StateEvent` to the
   installed :class:`~repro.controlplane.eventlog.EventLog`, enriched
   with the accounting facts replay needs (tenant, remaining work,
   reservation deltas, charges) so
   :func:`repro.controlplane.recovery.rebuild` can reconstruct the
   whole control plane from the log alone.

The discipline is diracx's explicit job state machine applied to this
control plane: the set of legal lifecycles is data, not convention.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Mapping, Optional

from .eventlog import eventlog_of
from .jobs import JobState


class LeaseState(Enum):
    """Lifecycle of a :class:`~repro.controlplane.lease.Lease` (defined
    here, beside :data:`LEASE_MACHINE`, so ``lease`` can import
    :func:`transition` without a cycle)."""

    ACTIVE = "active"
    RELEASED = "released"  # returned by the holder
    EXPIRED = "expired"    # reclaimed by the sweeper

    # Identity hashing, as on JobState.
    __hash__ = object.__hash__


class TransitionError(Exception):
    """An illegal state transition was attempted."""


class StateMachine:
    """Declared legal transitions for one entity family.

    ``transitions`` maps each state to the set of states it may move
    to; anything absent is illegal.  ``initial`` is the state
    :meth:`init` stamps on freshly constructed entities.
    """

    def __init__(self, kind: str, initial, transitions: Mapping):
        self.kind = kind
        self.initial = initial
        self.transitions: Dict[object, FrozenSet] = {
            frm: frozenset(tos) for frm, tos in transitions.items()}

    def init(self, entity) -> None:
        """Stamp the machine's initial state on a new entity."""
        entity.state = self.initial

    def allowed(self, frm, to) -> bool:
        return to in self.transitions.get(frm, ())

    def check(self, entity, to) -> None:
        """Raise :class:`TransitionError` unless ``entity`` may move to
        ``to``."""
        if not self.allowed(entity.state, to):
            legal = sorted(s.value for s in
                           self.transitions.get(entity.state, ()))
            raise TransitionError(
                f"illegal {self.kind} transition "
                f"{entity.state.value!r} -> {to.value!r} for {entity!r} "
                f"(legal: {legal})")

    def states(self):
        return type(self.initial)

    def __repr__(self):
        edges = sum(len(v) for v in self.transitions.values())
        return f"<StateMachine {self.kind} edges={edges}>"


#: The job lifecycle.  PROVISIONING is the window between dispatch and
#: lease grant — the state a crash mid-provision leaves a job in, which
#: the reconciler must be able to see and heal.
JOB_MACHINE = StateMachine("job", JobState.PENDING, {
    JobState.PENDING: {JobState.QUEUED, JobState.REJECTED},
    JobState.QUEUED: {JobState.PROVISIONING},
    JobState.PROVISIONING: {JobState.RUNNING, JobState.QUEUED},
    JobState.RUNNING: {JobState.COMPLETED, JobState.QUEUED,
                       JobState.FAILED},
})

#: The lease lifecycle: a grant is born ACTIVE and ends exactly once.
LEASE_MACHINE = StateMachine("lease", LeaseState.ACTIVE, {
    LeaseState.ACTIVE: {LeaseState.RELEASED, LeaseState.EXPIRED},
})

_MACHINES: Dict[type, StateMachine] = {
    JobState: JOB_MACHINE,
    LeaseState: LEASE_MACHINE,
}


def machine_for(state_cls: type) -> StateMachine:
    try:
        return _MACHINES[state_cls]
    except KeyError:
        raise TransitionError(
            f"no state machine registered for {state_cls!r}") from None


def _enrich(machine: StateMachine, entity, detail: dict) -> None:
    """Attach the accounting facts replay needs to every event."""
    if machine is JOB_MACHINE:
        detail.setdefault("tenant", entity.tenant)
        detail["work"] = entity.work_remaining
        detail["attempts"] = entity.attempts
    elif machine is LEASE_MACHINE:
        detail.setdefault("tenant", entity.tenant)
        detail.setdefault("n", len(entity.cluster.vms))


def transition(entity, to, cause: str = "", **detail):
    """Validated state change + event commit, in one place.

    ``entity`` is a :class:`~repro.controlplane.jobs.Job` or
    :class:`~repro.controlplane.lease.Lease` (anything with ``.state``,
    ``.id`` and ``.sim``).  Raises :class:`TransitionError` on an
    illegal move; otherwise assigns the new state and appends one event
    (``seq``, sim-time, entity id, from→to, cause, detail) to the
    installed event log.  Returns the event (None when no log is
    installed).
    """
    machine = machine_for(type(to))
    frm = entity.state
    machine.check(entity, to)
    entity.state = to
    _enrich(machine, entity, detail)
    if machine is JOB_MACHINE:
        # What the log knows about this job's remaining work — the live
        # side of the kill-and-replay comparison (in-flight progress
        # since the last durable event is, by design, not recoverable).
        entity._work_logged = entity.work_remaining
    return eventlog_of(entity.sim).append(
        machine.kind, entity.id, to=to.value, frm=frm.value,
        cause=cause, **detail)


def restore_state(entity, state) -> None:
    """Recovery-only direct state restore (no validation against the
    current state, no event — the event that justifies it is already in
    the log being replayed).  Still type-checked against the machine's
    state enum."""
    machine = machine_for(type(state))
    if not isinstance(state, machine.states()):
        raise TransitionError(f"{state!r} is not a {machine.kind} state")
    entity.state = state


def record(sim, kind: str, entity, to: str,
           frm: Optional[str] = None, cause: str = "", **detail):
    """Commit a non-state-machine fact (tenant registered, spot
    enrollment, heal action) to the installed log.  Thin sugar over
    :meth:`EventLog.append` so call sites read like transitions."""
    return eventlog_of(sim).append(kind, entity, to=to, frm=frm,
                                   cause=cause, **detail)
