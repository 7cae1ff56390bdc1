"""Job submission: per-tenant priority queues and admission control.

The queue is the control plane's front door.  :meth:`JobQueue.submit`
admits a job only if (a) its owner is registered, (b) it could ever fit
the federation (no cloud reconfiguration would make an impossible job
runnable), and (c) the tenant is within its quotas — reusing the cloud
layer's :class:`~repro.cloud.provider.QuotaExceeded` so quota failures
look the same at every layer.  Admitted jobs wait in per-tenant queues
ordered by priority then submission; *which* tenant goes next is the
fair-share scheduler's decision, not the queue's.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional

from ..cloud.provider import CloudError, InstanceSpec, QuotaExceeded
from ..metrics import MetricsRecorder
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.events import Event
from ..sky.federation import Federation
from .jobs import Job, JobState, Tenant
from .statemachine import record, transition


class AdmissionError(CloudError):
    """The job can never run on this federation (too big, bad tenant)."""


class JobQueue:
    """Per-tenant queues with admission control against the federation."""

    def __init__(self, sim: Simulator, federation: Federation,
                 metrics: MetricsRecorder,
                 spec: InstanceSpec = InstanceSpec()):
        self.sim = sim
        self.federation = federation
        self.spec = spec
        self.metrics = metrics
        self.tenants: Dict[str, Tenant] = {}
        #: Every job ever admitted (or rejected), by id — the master
        #: registry ``state_dict``/``summary`` count lifecycles over.
        self.jobs: Dict[int, Job] = {}
        #: Per-tenant queues, each sorted by (-priority, job.id).
        self._queues: Dict[str, List[Job]] = {}
        self._arrival: Event = sim.event()
        self.submitted = 0
        self.rejected = 0

    # -- tenants ---------------------------------------------------------

    def register_tenant(self, name: str, weight: float = 1.0,
                        max_queued: Optional[int] = None,
                        max_nodes: Optional[int] = None) -> Tenant:
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        if weight <= 0:
            raise ValueError("weight must be positive")
        tenant = Tenant(name, weight=weight, max_queued=max_queued,
                        max_nodes=max_nodes)
        self.tenants[name] = tenant
        self._queues[name] = []
        record(self.sim, "tenant", name, to="registered", cause="register",
               weight=weight, max_queued=max_queued, max_nodes=max_nodes)
        return tenant

    def tenant(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise AdmissionError(f"unknown tenant {name!r}") from None

    # -- capacity --------------------------------------------------------

    def potential_capacity(self) -> int:
        """Most instances of ``spec`` the federation could *ever* hold
        (empty clouds, quotas respected) — the admission ceiling."""
        total = 0
        pages = self.spec.memory_pages or 65536
        ram = pages * 4096
        for cloud in self.federation.clouds.values():
            fit = sum(min(h.cores // self.spec.vcpus, int(h.ram_bytes // ram))
                      for h in cloud.hosts)
            if cloud.quota is not None:
                fit = min(fit, cloud.quota)
            total += fit
        return total

    # -- submission ------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Admit ``job`` or raise (:class:`AdmissionError` /
        :class:`QuotaExceeded`).  Admitted jobs become QUEUED."""
        tenant = self.tenant(job.tenant)
        if job.state is not JobState.PENDING:
            raise AdmissionError(f"{job.name!r} is {job.state.value}, "
                                 f"only pending jobs can be submitted")
        job.span = tracer_of(self.sim).start(
            f"job:{job.name}", track=f"job:{job.name}",
            tenant=job.tenant, nodes=job.n_nodes,
        )
        self.jobs[job.id] = job
        if job.min_nodes > self.potential_capacity():
            self.rejected += 1
            transition(job, JobState.REJECTED, cause="admission",
                       **self._job_meta(job))
            job.span.end(status="rejected")
            raise AdmissionError(
                f"{job.name!r} needs {job.min_nodes} nodes; the federation "
                f"can hold at most {self.potential_capacity()}"
            )
        if (tenant.max_queued is not None
                and len(self._queues[job.tenant]) >= tenant.max_queued):
            self.rejected += 1
            transition(job, JobState.REJECTED, cause="quota",
                       **self._job_meta(job))
            job.span.end(status="rejected")
            raise QuotaExceeded(
                f"tenant {tenant.name!r} already has "
                f"{len(self._queues[job.tenant])} queued jobs "
                f"(quota {tenant.max_queued})"
            )
        job.submitted_at = self.sim.now
        tenant.jobs_submitted += 1
        self.submitted += 1
        self._enqueue(job, cause="submit", **self._job_meta(job))
        return job

    @staticmethod
    def _job_meta(job: Job) -> Dict[str, object]:
        """The construction facts replay needs to recreate the job."""
        return {"name": job.name, "n_nodes": job.n_nodes,
                "runtime": job.runtime, "priority": job.priority,
                "min_nodes": job.min_nodes, "max_nodes": job.max_nodes}

    def resubmit(self, job: Job, keep_progress: bool = True,
                 cause: str = "requeue", **detail) -> Job:
        """Requeue a previously running job (self-healing, preemption,
        spot reclamation): no admission re-check, original submission
        time kept for ordering.

        By default the job keeps its completed node-seconds
        (``job.progress``) and resumes from where it stopped — job-level
        checkpointing.  Pass ``keep_progress=False`` for the old
        restart-from-scratch semantics (workloads whose partial state
        cannot be recovered).  ``cause`` and ``detail`` ride the
        committed requeue event."""
        if not keep_progress:
            job.work_remaining = job.total_work
        self.jobs.setdefault(job.id, job)
        self._enqueue(job, cause=cause, **detail)
        return job

    def _enqueue(self, job: Job, cause: str = "submit", **detail) -> None:
        job.queued_at = self.sim.now
        transition(job, JobState.QUEUED, cause=cause, **detail)
        job._queued_span = tracer_of(self.sim).start("queued",
                                                     parent=job.span)
        # Sort key: priority descending, then submission order (job.id
        # is monotonic, so requeued jobs resume their original rank).
        insort(self._queues[job.tenant], job,
               key=lambda j: (-j.priority, j.id))
        self.metrics.record("queue.depth", self.depth())
        self._signal_arrival()

    def _signal_arrival(self) -> None:
        arrival, self._arrival = self._arrival, self.sim.event()
        arrival.succeed()

    @property
    def arrival(self) -> Event:
        """Fires on the next submission (scheduler wake-up)."""
        return self._arrival

    # -- consumption (scheduler side) ------------------------------------

    def depth(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            return len(self._queues.get(tenant, ()))
        return sum(len(q) for q in self._queues.values())

    def peek(self, tenant: str) -> Optional[Job]:
        q = self._queues.get(tenant)
        return q[0] if q else None

    def pop(self, tenant: str) -> Job:
        q = self._queues[tenant]
        if not q:
            raise LookupError(f"tenant {tenant!r} has no queued jobs")
        job = q.pop(0)
        job._queued_span.end()
        self.metrics.record("queue.depth", self.depth())
        return job

    def queued_jobs(self, tenant: str) -> List[Job]:
        """This tenant's queue in dispatch order (read-only view for
        backfill scans)."""
        return list(self._queues.get(tenant, ()))

    def take(self, job: Job) -> Job:
        """Remove a specific queued job (backfill picks below the
        head); raises :class:`LookupError` if it is not queued."""
        q = self._queues.get(job.tenant, [])
        try:
            q.remove(job)
        except ValueError:
            raise LookupError(f"{job.name!r} is not queued") from None
        job._queued_span.end()
        self.metrics.record("queue.depth", self.depth())
        return job

    def backlog(self) -> Dict[str, int]:
        """Queued jobs per tenant (insertion-ordered, deterministic)."""
        return {name: len(q) for name, q in self._queues.items()}

    def __repr__(self):
        return f"<JobQueue depth={self.depth()} tenants={len(self.tenants)}>"
