"""Jobs and tenants: the units the control plane schedules.

A :class:`Job` is a request for a virtual cluster of ``n_nodes`` for
``runtime`` seconds, owned by a :class:`Tenant`.  Jobs may be *malleable*
(``min_nodes < n_nodes`` or ``max_nodes > n_nodes``): the scheduler then
treats ``runtime * n_nodes`` as a pool of node-seconds of work and grows
or shrinks the backing cluster with queue pressure, finishing the job
when the work is done.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..obs.trace import NULL_SPAN
from ..simkernel.core import Simulator
from ..simkernel.events import Event
from ..simkernel.process import Process


class JobState(Enum):
    PENDING = "pending"            # created, not yet admitted
    QUEUED = "queued"              # admitted, waiting for resources
    PROVISIONING = "provisioning"  # dispatched, cluster booting
    RUNNING = "running"            # backed by an active lease
    COMPLETED = "completed"        # all work done
    FAILED = "failed"              # gave up (too many requeues)
    REJECTED = "rejected"          # failed admission control

    # Members are singletons, so identity hashing agrees with Enum
    # equality and skips the Python-level ``Enum.__hash__`` on every
    # ``StateMachine.allowed`` probe.
    __hash__ = object.__hash__


@dataclass
class Tenant:
    """One customer of the control plane.

    ``weight`` steers fair-share: in steady contention each tenant
    receives node-seconds proportional to its weight.  ``max_queued`` /
    ``max_nodes`` are the admission quotas (None = unlimited).
    """

    name: str
    weight: float = 1.0
    max_queued: Optional[int] = None
    max_nodes: Optional[int] = None
    #: Node-seconds charged to this tenant by finished/torn-down leases.
    usage: float = 0.0
    #: Expected node-seconds of granted-but-unfinished jobs (fair-share
    #: sees a grant the instant it is made, not when the bill arrives).
    reserved: float = 0.0
    jobs_submitted: int = 0
    jobs_completed: int = 0

    def charge(self, node_seconds: float) -> None:
        self.usage += node_seconds


class Job:
    """One schedulable unit of work.

    Parameters
    ----------
    tenant:
        Owning tenant's name.
    n_nodes:
        Preferred cluster size.
    runtime:
        Wall-clock seconds at the preferred size; total work is
        ``runtime * n_nodes`` node-seconds regardless of the actual
        (elastic) size the job runs at.
    priority:
        Higher runs first *within* a tenant's queue.
    min_nodes / max_nodes:
        Malleability bounds (default: rigid at ``n_nodes``).
    """

    _ids = itertools.count(1)

    #: Initial lifecycle state (class-level: every *instance* state
    #: change goes through :func:`repro.controlplane.statemachine.
    #: transition`, which shadows this with the instance attribute).
    state: JobState = JobState.PENDING

    def __init__(self, sim: Simulator, tenant: str, n_nodes: int,
                 runtime: float, priority: int = 0,
                 min_nodes: Optional[int] = None,
                 max_nodes: Optional[int] = None,
                 name: Optional[str] = None):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if runtime <= 0:
            raise ValueError("runtime must be positive")
        self.id = next(Job._ids)
        self.sim = sim
        self.name = name or f"job-{self.id}"
        self.tenant = tenant
        self.n_nodes = n_nodes
        self.runtime = float(runtime)
        self.priority = priority
        self.min_nodes = min_nodes if min_nodes is not None else n_nodes
        self.max_nodes = max_nodes if max_nodes is not None else n_nodes
        if not (1 <= self.min_nodes <= n_nodes <= self.max_nodes):
            raise ValueError(
                f"need 1 <= min_nodes <= n_nodes <= max_nodes, got "
                f"{self.min_nodes}/{n_nodes}/{self.max_nodes}"
            )
        self.submitted_at: Optional[float] = None
        #: When the job last entered the queue (submit or requeue) —
        #: starvation is measured from here, not from ``submitted_at``,
        #: so a freshly requeued job does not instantly look starved.
        self.queued_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: How many times the job entered RUNNING (1 = never requeued).
        self.attempts = 0
        #: Node-seconds of work still to do.  Preserved across requeues
        #: (job-level checkpointing): a preempted or healed job resumes
        #: from its completed node-seconds instead of restarting.
        self.work_remaining = self.runtime * n_nodes
        #: Node-seconds currently reserved against the tenant's fair
        #: share for this job's in-flight grant (scheduler-internal;
        #: equals ``work_remaining`` at dispatch, 0 when not granted).
        self._reserved_work = 0.0
        #: ``work_remaining`` as of the last committed state event —
        #: what an event-sourced restart can know about this job's
        #: progress (updated by the transition helper).
        self._work_logged = self.work_remaining
        #: Fires with the job when it completes or fails terminally.
        self.done: Event = sim.event()
        #: The runner process while RUNNING (scheduler-internal).
        self._runner: Optional[Process] = None
        #: Root trace span covering admission -> completion (the queue
        #: opens it at submit; stays :data:`~repro.obs.NULL_SPAN` when
        #: tracing is off).
        self.span = NULL_SPAN
        #: Child span of one QUEUED stretch (queue-internal).
        self._queued_span = NULL_SPAN

    @property
    def total_work(self) -> float:
        """Total node-seconds this job represents."""
        return self.runtime * self.n_nodes

    @property
    def progress(self) -> float:
        """Completed node-seconds — the credit a requeued job keeps."""
        return self.total_work - self.work_remaining

    @property
    def progress_fraction(self) -> float:
        """Completed fraction of the job's work in [0, 1]."""
        return self.progress / self.total_work if self.total_work else 1.0

    @property
    def elastic(self) -> bool:
        return self.min_nodes < self.n_nodes or self.max_nodes > self.n_nodes

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait until first start (None if never started)."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def turnaround(self) -> Optional[float]:
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def __repr__(self):
        return (f"<Job {self.name!r} tenant={self.tenant!r} "
                f"n={self.n_nodes} {self.state.value}>")
