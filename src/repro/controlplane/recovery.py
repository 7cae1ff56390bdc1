"""Replay recovery and reconciliation for the event-sourced plane.

Three layers, each usable alone:

* :func:`rebuild` folds any event sequence into the
  :class:`RecoveredState` it implies — jobs, leases, tenant
  usage/reserved accounting, and spot enrollments, with duplicate
  deliveries (at-least-once replay) deduplicated by sequence number.
  :func:`state_dict` produces the same canonical dict from a *live*
  plane, so kill-and-replay tests can assert byte equality between a
  replayed log prefix and the state that existed when the prefix ended.

* :func:`recover` restarts a crashed control plane from its log:
  tenants re-registered with their charged usage, unfinished jobs
  recreated at their last durable progress, still-live clusters
  re-attached to fresh leases (found by name in the federation), and
  stranded spot enrollments retired back to on-demand terms.

* :class:`Reconciler` closes the loop between *desired* state (what
  the plane believes) and *observed* state (what the federation
  actually runs): leases whose VMs are gone, VMs no lease owns,
  half-provisioned grants with no live runner.  Each confirmed drift
  heals through the existing requeue/terminate paths, so recovery and
  steady-state self-healing share one vocabulary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..hypervisor.vm import VMState
from ..metrics import MetricsRecorder
from ..obs.trace import tracer_of
from ..simkernel import Process, Simulator
from .eventlog import EventLog, StateEvent, eventlog_of
from .jobs import Job, JobState
from .lease import Lease, LeaseState
from .statemachine import restore_state

#: Job states a recovered plane must act on (the job is owed resources).
_NONTERMINAL = (JobState.QUEUED, JobState.PROVISIONING, JobState.RUNNING)


# -- folded records ------------------------------------------------------


@dataclass
class TenantRecord:
    name: str
    weight: float = 1.0
    max_queued: Optional[int] = None
    max_nodes: Optional[int] = None
    usage: float = 0.0
    reserved: float = 0.0


@dataclass
class JobRecord:
    id: int
    name: str = ""
    tenant: str = ""
    state: str = JobState.PENDING.value
    n_nodes: int = 1
    runtime: float = 1.0
    priority: int = 0
    min_nodes: int = 1
    max_nodes: int = 1
    work: float = 0.0
    attempts: int = 0
    #: Outstanding fair-share reservation (reserve minus unreserve).
    reserved: float = 0.0
    submitted_at: Optional[float] = None
    queued_at: Optional[float] = None
    lease: Optional[int] = None


@dataclass
class LeaseRecord:
    id: int
    tenant: str = ""
    state: str = LeaseState.ACTIVE.value
    job: Optional[int] = None
    n: int = 0
    term: float = 0.0
    cluster: str = ""
    granted_at: float = 0.0
    expires_at: float = 0.0
    charged: float = 0.0


@dataclass
class SpotRecord:
    vm: str
    cloud: str = ""
    lease: Optional[int] = None
    tenant: Optional[str] = None
    #: None while the enrollment is alive; a terminal outcome
    #: ("rescued"/"checkpointed"/"requeued"/"closed") once finalized.
    outcome: Optional[str] = None


@dataclass
class RecoveredState:
    """Control-plane state implied by an event sequence."""

    tenants: Dict[str, TenantRecord] = field(default_factory=dict)
    jobs: Dict[int, JobRecord] = field(default_factory=dict)
    leases: Dict[int, LeaseRecord] = field(default_factory=dict)
    spot: Dict[str, SpotRecord] = field(default_factory=dict)
    last_seq: int = 0
    last_time: float = 0.0
    heal_events: int = 0

    def jobs_by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.jobs.values():
            counts[rec.state] = counts.get(rec.state, 0) + 1
        return counts

    def state_dict(self) -> Dict[str, object]:
        """The canonical comparison dict (see module docstring)."""
        return {
            "seq": self.last_seq,
            "tenants": {t.name: {"usage": t.usage, "reserved": t.reserved}
                        for t in self.tenants.values()},
            "jobs": {r.id: {"state": r.state, "tenant": r.tenant,
                            "work": r.work, "attempts": r.attempts}
                     for r in self.jobs.values()},
            "leases": {r.id: {"state": r.state, "tenant": r.tenant,
                              "job": r.job}
                       for r in self.leases.values()},
            "spot": {r.vm: {"cloud": r.cloud, "lease": r.lease,
                            "outcome": r.outcome}
                     for r in self.spot.values()},
        }

    def __repr__(self):
        return (f"<RecoveredState seq={self.last_seq} "
                f"jobs={len(self.jobs)} leases={len(self.leases)} "
                f"tenants={len(self.tenants)}>")


def rebuild(events: Union[EventLog, List[StateEvent]]) -> RecoveredState:
    """Fold an event sequence into the state it implies.

    Tolerates at-least-once delivery: any event whose ``seq`` is not
    strictly greater than the last applied one is skipped, so replaying
    a duplicated or overlapping stream converges to the same state as
    the exact stream (the accounting deltas it carries are applied
    exactly once).
    """
    state = RecoveredState()
    for ev in events:
        if ev.seq <= state.last_seq:
            continue  # duplicate delivery
        state.last_seq = ev.seq
        state.last_time = ev.time
        d = ev.detail
        if ev.kind == "tenant":
            rec = state.tenants.get(ev.entity)
            if rec is None:
                state.tenants[ev.entity] = TenantRecord(
                    ev.entity, weight=d.get("weight", 1.0),
                    max_queued=d.get("max_queued"),
                    max_nodes=d.get("max_nodes"))
            else:  # re-registration during recovery: keep accounting
                rec.weight = d.get("weight", rec.weight)
        elif ev.kind == "job":
            rec = state.jobs.get(ev.entity)
            if rec is None:
                rec = state.jobs[ev.entity] = JobRecord(ev.entity)
            rec.state = ev.to
            rec.tenant = d.get("tenant", rec.tenant)
            rec.work = d.get("work", rec.work)
            rec.attempts = d.get("attempts", rec.attempts)
            for key in ("name", "n_nodes", "runtime", "priority",
                        "min_nodes", "max_nodes"):
                if key in d:
                    setattr(rec, key, d[key])
            if "lease" in d:
                rec.lease = d["lease"]
            if ev.to == JobState.QUEUED.value:
                rec.queued_at = ev.time
                if ev.frm == JobState.PENDING.value:
                    rec.submitted_at = ev.time
            tenant = state.tenants.get(rec.tenant)
            if tenant is not None:
                if "reserve" in d:
                    tenant.reserved += d["reserve"]
                    rec.reserved += d["reserve"]
                if "unreserve" in d:
                    tenant.reserved -= d["unreserve"]
                    rec.reserved -= d["unreserve"]
        elif ev.kind == "lease":
            rec = state.leases.get(ev.entity)
            if rec is None:
                rec = state.leases[ev.entity] = LeaseRecord(
                    ev.entity, granted_at=ev.time)
            rec.state = ev.to
            rec.tenant = d.get("tenant", rec.tenant)
            if "job" in d:
                rec.job = d["job"]
            if "n" in d:
                rec.n = d["n"]
            if "term" in d:
                rec.term = d["term"]
            if "cluster" in d:
                rec.cluster = d["cluster"]
            if "expires" in d:
                rec.expires_at = d["expires"]
            if "charged" in d:
                rec.charged += d["charged"]
                tenant = state.tenants.get(rec.tenant)
                if tenant is not None and d["charged"] > 0:
                    tenant.usage += d["charged"]
        elif ev.kind == "spot":
            if ev.to == "enrolled":
                state.spot[ev.entity] = SpotRecord(
                    ev.entity, cloud=d.get("cloud", ""),
                    lease=d.get("lease"), tenant=d.get("tenant"))
            else:
                rec = state.spot.get(ev.entity)
                if rec is not None:
                    rec.outcome = ev.to
        elif ev.kind == "heal":
            state.heal_events += 1
    return state


def state_dict(plane) -> Dict[str, object]:
    """The live plane's state in :meth:`RecoveredState.state_dict`
    shape.  Progress is reported *as of the last committed event*
    (``job._work_logged``), because in-flight ticks since then are
    exactly what a crash loses."""
    spot: Dict[str, Dict[str, object]] = {}
    if plane.spot is not None:
        for vm_name, b in plane.spot._backings.items():
            spot[vm_name] = {"cloud": b.market.cloud.name,
                             "lease": b.lease.id,
                             "outcome": b.outcome}
    return {
        "seq": eventlog_of(plane.sim).last_seq,
        "tenants": {t.name: {"usage": t.usage, "reserved": t.reserved}
                    for t in plane.queue.tenants.values()},
        "jobs": {j.id: {"state": j.state.value, "tenant": j.tenant,
                        "work": j._work_logged, "attempts": j.attempts}
                 for j in plane.queue.jobs.values()},
        "leases": {l.id: {"state": l.state.value, "tenant": l.tenant,
                          "job": l.job.id if l.job is not None else None}
                   for l in plane.leases.leases},
        "spot": spot,
    }


# -- restart from the log ------------------------------------------------


def recover(sim: Simulator, federation, image_name: str,
            log: Union[EventLog, List[StateEvent], RecoveredState],
            **plane_kwargs):
    """Build a fresh :class:`~repro.controlplane.plane.ControlPlane`
    whose state is the one the log implies.

    Same-simulation restart (crash recovery) keeps appending to the
    installed log; cross-simulation restart (a new process loading a
    JSONL snapshot) installs a log primed with the loaded history so
    sequence numbers continue.

    Jobs left mid-flight (QUEUED / PROVISIONING / RUNNING) are
    recreated at their last durable progress; queued jobs re-enter the
    queue immediately, while half-provisioned and formerly running jobs
    are left for the :class:`Reconciler` to requeue once it has diffed
    desired against observed state.  Active leases are re-attached when
    their cluster still exists in the federation (matched by the
    cluster name committed at grant); leases whose clusters are gone
    are committed as expired.  Live spot enrollments cannot survive the
    crash (their manager did not), so they are retired back to
    on-demand terms and committed as closed.
    """
    from .plane import ControlPlane  # import cycle: plane wires us

    state = log if isinstance(log, RecoveredState) else rebuild(log)
    if (eventlog_of(sim) is not getattr(sim, "_eventlog", None)
            or eventlog_of(sim).last_seq == 0):
        # No live log on this simulator: prime one with the history.
        events = list(log) if not isinstance(log, RecoveredState) else []
        EventLog(sim, events=events).install()
    plane = ControlPlane(sim, federation, image_name, **plane_kwargs)

    # Tenants, with their charged usage and outstanding reservations.
    for rec in state.tenants.values():
        tenant = plane.queue.register_tenant(
            rec.name, weight=rec.weight, max_queued=rec.max_queued,
            max_nodes=rec.max_nodes)
        tenant.usage = rec.usage
        tenant.reserved = rec.reserved

    # Jobs, at their last durable progress.
    jobs: Dict[int, Job] = {}
    for rec in sorted(state.jobs.values(), key=lambda r: r.id):
        if rec.tenant not in plane.queue.tenants:
            continue
        job = Job(sim, rec.tenant, rec.n_nodes, rec.runtime,
                  priority=rec.priority, min_nodes=rec.min_nodes,
                  max_nodes=rec.max_nodes, name=rec.name or None)
        job.id = rec.id
        job.name = rec.name or f"job-{rec.id}"
        job.work_remaining = rec.work
        job._work_logged = rec.work
        job.attempts = rec.attempts
        job._reserved_work = rec.reserved
        job.submitted_at = rec.submitted_at
        job.queued_at = rec.queued_at
        jobs[rec.id] = job
        plane.queue.jobs[job.id] = job
        job_state = JobState(rec.state)
        if job_state is JobState.QUEUED:
            # Straight back into the queue (a fact worth committing:
            # the restarted plane owns this job again).
            plane.queue.resubmit(job, cause="recovery")
        else:
            restore_state(job, job_state)
            if job_state in (JobState.COMPLETED, JobState.FAILED):
                job.done.succeed(job)
        if job_state is not JobState.REJECTED:
            plane.queue.tenants[rec.tenant].jobs_submitted += 1
        if job_state is JobState.COMPLETED:
            plane.queue.tenants[rec.tenant].jobs_completed += 1
    if state.jobs:
        Job._ids = itertools.count(
            max(max(state.jobs), next(Job._ids)) + 1)

    # Counters the summary reports.
    by_state = state.jobs_by_state()
    plane.queue.submitted = sum(
        n for s, n in by_state.items() if s != JobState.REJECTED.value)
    plane.queue.rejected = by_state.get(JobState.REJECTED.value, 0)
    plane.scheduler.jobs_completed = by_state.get(
        JobState.COMPLETED.value, 0)
    plane.scheduler.jobs_failed = by_state.get(JobState.FAILED.value, 0)

    # Leases: re-attach still-existing clusters; write off the rest.
    clusters = {c.name: c for c in federation.clusters}
    log_out = eventlog_of(sim)
    max_lease = 0
    for rec in sorted(state.leases.values(), key=lambda r: r.id):
        max_lease = max(max_lease, rec.id)
        if rec.state != LeaseState.ACTIVE.value:
            continue
        cluster = clusters.get(rec.cluster)
        if cluster is not None and cluster.vms:
            lease = Lease(sim, rec.tenant, cluster, rec.term,
                          job=jobs.get(rec.job))
            lease.id = rec.id
            lease.granted_at = rec.granted_at
            lease.expires_at = rec.expires_at
            plane.leases.adopt(lease)
            log_out.append("lease", rec.id, to=LeaseState.ACTIVE.value,
                           frm=LeaseState.ACTIVE.value, cause="recovery",
                           tenant=rec.tenant, n=len(cluster.vms),
                           term=rec.term, job=rec.job,
                           cluster=rec.cluster, expires=rec.expires_at)
        else:
            # The cluster died with the crash: commit the loss so the
            # log and the live plane agree the lease is over.
            log_out.append("lease", rec.id, to=LeaseState.EXPIRED.value,
                           frm=LeaseState.ACTIVE.value,
                           cause="recovery-lost", tenant=rec.tenant,
                           n=0, charged=0.0)
    if max_lease:
        Lease._ids = itertools.count(
            max(max_lease, next(Lease._ids)) + 1)

    # Stranded spot enrollments: the backing objects died with the old
    # manager; retire the market terms back to on-demand.
    markets = plane_kwargs.get("spot_markets") or {}
    stranded = {vm for vm, rec in state.spot.items()
                if rec.outcome is None}
    for market in markets.values():
        for inst in list(market.instances):
            if inst.alive and inst.vm.name in stranded:
                market.retire(inst)
                log_out.append("spot", inst.vm.name, to="closed",
                               frm="enrolled", cause="recovery")
    return plane


# -- reconciliation ------------------------------------------------------


@dataclass
class Drift:
    """One divergence between desired and observed state."""

    kind: str      # "lease-lost" | "orphan-vm" | "stuck-job"
    entity: Union[int, str]
    detail: str = ""

    @property
    def key(self):
        return (self.kind, self.entity)


class Reconciler:
    """Diffs desired state (the plane's books) against observed state
    (what the federation actually runs) and heals the difference.

    Detected drift kinds:

    ``lease-lost``
        An active lease none of whose VMs is alive in any member cloud
        — the crash or partition took the cluster.  Healed by scrubbing
        the corpses and requeueing the job through the scheduler's
        standard path (progress kept).
    ``orphan-vm``
        A VM some cloud runs that no active lease owns — a
        half-provisioned grant, or capacity an old incarnation of the
        plane leaked.  Healed by terminating it (overlay membership
        dropped first).
    ``stuck-job``
        A PROVISIONING or RUNNING job with no live runner process —
        what a control-plane crash leaves behind.  Healed by requeueing
        (through the lease when one is attached, directly otherwise).

    Transient in-flight operations look like drift (a booting cluster
    has VMs before its lease exists), so periodic sweeps only heal
    drifts observed in **two consecutive rounds**; :meth:`reconcile`
    with ``force=True`` (used right after :func:`recover`) heals
    immediately.  Regions under a declared partition are skipped
    entirely — their state cannot be observed, so nothing about them
    may be healed (that is what makes split-brain safe here).
    """

    def __init__(self, sim: Simulator, plane, interval: float = 60.0,
                 metrics: Optional[MetricsRecorder] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.plane = plane
        self.interval = interval
        self.metrics = metrics
        self.partitioned: set = set()
        self.healed: List[Drift] = []
        self._seen_last_round: set = set()
        self._proc: Optional[Process] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Process:
        if self._proc is None or not self._proc.is_alive:
            self._running = True
            self._proc = self.sim.process(self._run(), name="reconciler")
        return self._proc

    def stop(self) -> None:
        self._running = False

    def _run(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            if not self._running:
                return
            self.reconcile()

    # -- partitions ------------------------------------------------------

    def partition(self, cloud_name: str) -> None:
        """Declare a region unobservable (network partition): its
        leases and VMs are exempt from reconciliation until healed."""
        self.partitioned.add(cloud_name)

    def heal_partition(self, cloud_name: str) -> None:
        self.partitioned.discard(cloud_name)

    # -- observe / diff --------------------------------------------------

    def _observable_clouds(self):
        return [c for name, c in self.plane.federation.clouds.items()
                if name not in self.partitioned]

    def diff(self) -> List[Drift]:
        """Desired-vs-observed divergences, deterministic order."""
        plane = self.plane
        drifts: List[Drift] = []
        observed = {vm.name: vm for cloud in self._observable_clouds()
                    for vm in cloud.instances}
        leased = set()
        for lease in plane.leases.active_leases():
            sites = {vm.site for vm in lease.cluster.vms}
            leased.update(vm.name for vm in lease.cluster.vms)
            if sites & self.partitioned:
                continue  # cannot observe: do not judge
            live = [vm for vm in lease.cluster.vms
                    if vm.name in observed
                    and vm.state is not VMState.STOPPED]
            if not live:
                drifts.append(Drift("lease-lost", lease.id,
                                    f"{len(lease.cluster.vms)} vms gone"))
        for name in sorted(observed):
            if name not in leased:
                drifts.append(Drift("orphan-vm", name,
                                    observed[name].site))
        for job in plane.queue.jobs.values():
            if job.state not in (JobState.PROVISIONING, JobState.RUNNING):
                continue
            runner = job._runner
            if runner is None or not runner.is_alive:
                drifts.append(Drift("stuck-job", job.id,
                                    job.state.value))
        if self.metrics is not None:
            for drift in drifts:
                self.metrics.counter(
                    "reconciler.drifts",
                    labels={"kind": drift.kind}).inc()
        return drifts

    # -- heal ------------------------------------------------------------

    def reconcile(self, force: bool = False) -> List[Drift]:
        """One observe→diff→heal round; returns the drifts healed.

        Without ``force``, a drift must have been observed in the
        previous round too (debounce against in-flight provisions)."""
        drifts = self.diff()
        keys = {d.key for d in drifts}
        if force:
            confirmed = drifts
        else:
            confirmed = [d for d in drifts
                         if d.key in self._seen_last_round]
        self._seen_last_round = keys
        if not confirmed:
            return []
        span = tracer_of(self.sim).start(
            "reconcile", track="controlplane", drifts=len(confirmed))
        for drift in confirmed:
            self._heal(drift, span)
            self.healed.append(drift)
            if self.metrics is not None:
                self.metrics.counter(
                    "reconciler.heals",
                    labels={"kind": drift.kind}).inc()
        span.end()
        return confirmed

    def _heal(self, drift: Drift, span) -> None:
        plane = self.plane
        if drift.kind == "lease-lost":
            lease = next((l for l in plane.leases.active_leases()
                          if l.id == drift.entity), None)
            if lease is None:
                return
            self._scrub_dead(lease)
            span.event("requeue-lease", lease=lease.id)
            plane.scheduler.requeue(lease, reason="reconcile:lease-lost")
        elif drift.kind == "orphan-vm":
            for cloud in self._observable_clouds():
                vm = next((v for v in cloud.instances
                           if v.name == drift.entity), None)
                if vm is None:
                    continue
                overlay = plane.federation.overlay
                if vm.has_address and vm.address.host in overlay.members:
                    overlay.unregister(vm)
                cloud.terminate(vm)
                span.event("terminate-orphan", vm=drift.entity,
                           cloud=cloud.name)
                break
        elif drift.kind == "stuck-job":
            job = plane.queue.jobs.get(drift.entity)
            if job is None or job.state not in (JobState.PROVISIONING,
                                                JobState.RUNNING):
                return
            lease = next((l for l in plane.leases.active_leases()
                          if l.job is job), None)
            span.event("requeue-job", job=job.name)
            if lease is not None:
                plane.scheduler.requeue(lease, reason="reconcile:stuck")
            else:
                unreserved = job._reserved_work
                plane.scheduler._unreserve(job)
                plane.queue.resubmit(job, cause="reconcile:stuck",
                                     unreserve=unreserved)

    def _scrub_dead(self, lease) -> None:
        """Drop dead/vanished VMs from a lost lease's cluster so its
        teardown neither double-terminates nor bills ghost capacity."""
        fed = self.plane.federation
        for vm in list(lease.cluster.vms):
            lease.cluster.vms.remove(vm)
            if vm.has_address and vm.address.host in fed.overlay.members:
                fed.overlay.unregister(vm)
            for cloud in fed.clouds.values():
                if vm in cloud.instances:
                    cloud.terminate(vm)
                    break

    def __repr__(self):
        return (f"<Reconciler healed={len(self.healed)} "
                f"partitioned={sorted(self.partitioned)}>")
