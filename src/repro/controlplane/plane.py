"""The control plane facade: every component wired and started.

:class:`ControlPlane` is the user-facing object the paper's "unified
infrastructure" implies: register tenants, submit jobs, and the queue,
lease manager, fair-share scheduler and health monitor do the rest over
the federation.  All components record into the simulation's one
:class:`~repro.metrics.MetricsRecorder` and commit to its one
:class:`~repro.controlplane.eventlog.EventLog`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..metrics import MetricsRecorder, recorder_of
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.events import Event
from ..sky.federation import Federation
from .eventlog import EventLog
from .health import HealthMonitor
from .jobs import Job, JobState, Tenant
from .lease import LeaseManager
from .queue import JobQueue
from .recovery import Reconciler
from .scheduler import FairShareScheduler, SchedulerConfig
from .spot import SpotCapacityManager, SpotPolicy


class ControlPlane:
    """Multi-tenant job service over a sky-computing federation.

    Parameters
    ----------
    federation, image_name:
        The substrate and the image every job cluster boots from (must
        be registered at every member cloud).
    config:
        Scheduler tuning (interval, lease term, attempts, ...).
    heal_policy:
        ``"replace"`` (default) grows replacements for failed VMs in
        place; ``"requeue"`` restarts the whole job.
    health_interval / sweep_interval:
        Health-check and lease-expiry sweep periods.
    spot_markets:
        Optional ``{cloud_name: SpotMarket}`` consulted for placement
        pricing (and, with ``spot_policy``, for backing leases).
    spot_policy:
        Optional :class:`~repro.controlplane.spot.SpotPolicy`; together
        with ``spot_markets`` it enables the spot capacity subsystem —
        leases are backed by bid-priced spot enrollments and every
        reclamation is answered by rescue, checkpoint-restart, or
        requeue-with-progress (see :mod:`repro.controlplane.spot`).
    tracer:
        Optional :class:`~repro.obs.Tracer`; when given it is installed
        on the simulator, so every job gets an
        admission->queue->lease->completion trace.
    reconcile_interval:
        When set, a :class:`~repro.controlplane.recovery.Reconciler`
        sweeps desired-vs-observed state every that many seconds (and
        is exposed as ``plane.reconciler`` for forced rounds and
        partition declarations).

    One recorder and one event log per simulation: the plane reuses the
    :class:`~repro.metrics.MetricsRecorder` and the
    :class:`~repro.controlplane.eventlog.EventLog` installed on ``sim``
    and installs fresh in-memory ones only where none is, so
    ``plane.metrics is recorder_of(sim)`` always holds and a plane
    restarted after a crash continues the same series and the same
    sequence.  To use a custom recorder or a write-through
    ``EventLog(sim, path=...)``, install it before building the plane.
    """

    def __init__(self, sim: Simulator, federation: Federation,
                 image_name: str,
                 config: Optional[SchedulerConfig] = None,
                 spot_markets: Optional[Dict[str, object]] = None,
                 spot_policy: Optional[SpotPolicy] = None,
                 heal_policy: str = "replace",
                 health_interval: float = 30.0,
                 sweep_interval: float = 30.0,
                 tracer=None,
                 reconcile_interval: Optional[float] = None):
        self.sim = sim
        self.federation = federation
        self.image_name = image_name
        # Layers without a recorder reference (hypervisor migrations,
        # transport) find the same one via recorder_of.
        recorder = recorder_of(sim)
        self.metrics = (recorder if recorder is not None
                        else MetricsRecorder(sim).install())
        if tracer is not None:
            tracer.install()
        self.tracer = tracer if tracer is not None else tracer_of(sim)
        # An empty log is falsy (it has a length), so test for None.
        log = getattr(sim, "_eventlog", None)
        self.eventlog = log if log is not None else EventLog(sim).install()
        self.config = config or SchedulerConfig()
        self.queue = JobQueue(sim, federation, self.metrics,
                              spec=self.config.spec)
        self.leases = LeaseManager(sim, federation, self.metrics,
                                   sweep_interval=sweep_interval)
        self.leases.charge = lambda tenant, ns: (
            self.queue.tenants[tenant].charge(ns)
            if tenant in self.queue.tenants else None)
        self.scheduler = FairShareScheduler(
            sim, federation, self.queue, self.leases, image_name,
            self.metrics, spot_markets=spot_markets, config=self.config)
        self.health = HealthMonitor(
            sim, federation, self.leases, self.scheduler, self.metrics,
            interval=health_interval, policy=heal_policy)
        self.spot: Optional[SpotCapacityManager] = None
        if spot_policy is not None and spot_markets:
            self.spot = SpotCapacityManager(
                sim, federation, spot_markets, self.leases,
                self.scheduler, self.metrics, policy=spot_policy)
            self.scheduler.spot = self.spot
        self.reconciler: Optional[Reconciler] = None
        if reconcile_interval is not None:
            self.reconciler = Reconciler(sim, self,
                                         interval=reconcile_interval)
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ControlPlane":
        """Start the scheduler loop, lease sweeper and health monitor."""
        self.leases.start()
        self.scheduler.start()
        self.health.start()
        if self.reconciler is not None:
            self.reconciler.start()
        self._started = True
        return self

    def stop(self) -> None:
        self.scheduler.stop()
        self.leases.stop()
        self.health.stop()
        if self.reconciler is not None:
            self.reconciler.stop()
        self._started = False

    def crash(self) -> EventLog:
        """Hard failure at ``sim.now``: every control loop and job
        runner dies where it stands — leases, VMs and half-provisioned
        clusters are left dangling, nothing is unreserved or charged.
        Returns the event log (all a restarted plane gets to see; hand
        it to :func:`~repro.controlplane.recovery.recover`)."""
        self.stop()

        def _kill(proc):
            if (proc is not None and proc.is_alive
                    and proc is not self.sim.active_process):
                # The loops don't catch Interrupt (a real crash is not
                # a control flow they handle); defuse so the failure
                # does not take the simulator down with the plane.
                proc.callbacks.append(
                    lambda ev: setattr(ev, "defused", True))
                proc.interrupt("crash")

        _kill(self.scheduler._loop)
        _kill(self.leases._sweeper)
        _kill(self.health._proc)
        if self.reconciler is not None:
            _kill(self.reconciler._proc)
        for job in self.queue.jobs.values():
            _kill(job._runner)
        return self.eventlog

    # -- user API --------------------------------------------------------

    def register_tenant(self, name: str, weight: float = 1.0,
                        **quotas) -> Tenant:
        return self.queue.register_tenant(name, weight=weight, **quotas)

    def submit(self, tenant: str, n_nodes: int, runtime: float,
               priority: int = 0, min_nodes: Optional[int] = None,
               max_nodes: Optional[int] = None,
               name: Optional[str] = None) -> Job:
        """Build and admit one job; returns it (with a ``done`` event)."""
        job = Job(self.sim, tenant, n_nodes, runtime, priority=priority,
                  min_nodes=min_nodes, max_nodes=max_nodes, name=name)
        return self.queue.submit(job)

    def all_done(self, jobs: Iterable[Job]) -> Event:
        """Event firing when every job completed or failed terminally."""
        return self.sim.all_of([job.done for job in jobs])

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        finished: List[Job] = [
            l.job for l in self.leases.leases
            if l.job is not None and l.job.state is JobState.COMPLETED
        ]
        waits = [j.wait_time for j in {id(j): j for j in finished}.values()
                 if j.wait_time is not None]
        by_state: Dict[str, int] = {}
        for job in self.queue.jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "submitted": self.queue.submitted,
            "completed": self.scheduler.jobs_completed,
            "failed": self.scheduler.jobs_failed,
            "requeued": self.scheduler.jobs_requeued,
            "queued": self.queue.depth(),
            "leases": len(self.leases.leases),
            "leases_expired": self.leases.expired_count,
            "leases_leaked": len(self.leases.leaked()),
            "heal_events": len(self.health.events),
            "jobs_by_state": by_state,
            "last_seq": self.eventlog.last_seq,
            "mean_wait": (sum(waits) / len(waits)) if waits else 0.0,
            "usage_by_tenant": {t.name: t.usage
                                for t in self.queue.tenants.values()},
            **({"spot": self.spot.summary()} if self.spot else {}),
        }

    def __repr__(self):
        state = "started" if self._started else "stopped"
        return (f"<ControlPlane {state} tenants={len(self.queue.tenants)} "
                f"queued={self.queue.depth()} "
                f"active_leases={len(self.leases.active_leases())}>")
