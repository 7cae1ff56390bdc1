"""The fair-share scheduler: matches queued jobs to clouds.

A single scheduler loop runs as a simkernel process.  Each round it

1. ranks tenants by *effective usage per unit weight* (charged usage
   plus the reserved work of outstanding grants) and grants the most
   underserved tenant's head job first — weighted fair share;
2. places each grant on the cloud minimizing a price+utilization score
   (spot-market price taken when the local market is cheaper than
   on-demand), spanning clouds only when no single cloud fits;
3. provisions a virtual cluster inside the job's own runner process
   (:meth:`~repro.sky.federation.Federation.launch` starts one batch
   per cloud, :meth:`~repro.sky.federation.Federation.assemble` joins
   them), wraps it in a lease, and runs the job against it;
4. adjusts malleable jobs to queue pressure: grows idle-capacity
   clusters when the queue is empty, shrinks over-provisioned ones back
   to ``min_nodes`` when jobs are waiting.

Placement decisions are made synchronously between events, with
commitment accounting so concurrent in-flight provisions never
oversubscribe a cloud; everything is deterministic under a fixed
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cloud.provider import Cloud, CloudError, InstanceSpec
from ..metrics import MetricsRecorder
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.errors import Interrupt
from ..simkernel.events import NORMAL, Event
from ..simkernel.process import Process
from ..sky.federation import Federation, FederationError
from .jobs import Job, JobState, Tenant
from .lease import Lease, LeaseManager
from .queue import JobQueue
from .statemachine import transition

#: Placement score = price + UTIL_WEIGHT * cloud utilization: among
#: similarly priced clouds, the less loaded one wins.
UTIL_WEIGHT = 0.05
#: Pessimism added to a backfill candidate's estimated runtime (covers
#: boot + image propagation) before comparing against the blocked
#: head's shadow time.
BACKFILL_SLACK = 30.0
#: A victim tenant's share-per-weight must exceed the starving tenant's
#: by this factor before its spot-backed leases are preempted; keeps
#: epsilon fair-share differences from triggering preemption ping-pong
#: under steady contention.
PREEMPTION_IMBALANCE = 1.5


@dataclass
class SchedulerConfig:
    """Tuning knobs for :class:`FairShareScheduler`."""

    #: Scheduling/accounting round length (seconds).
    interval: float = 10.0
    #: Initial lease term; runners renew while their job needs it.
    lease_term: float = 900.0
    #: Instance shape for every grant.
    spec: InstanceSpec = field(default_factory=InstanceSpec)
    #: Give up on a job after this many (re)starts.
    max_attempts: int = 5
    #: EASY backfill: when the most-underserved head job cannot start,
    #: run smaller queued jobs that will not delay its reservation.
    backfill: bool = True


#: One decision point's capacity snapshot: clouds in placement order
#: (best score first), available nodes per cloud, and their total.
CapacityView = Tuple[List[Cloud], Dict[str, int], int]


class FairShareScheduler:
    """Weighted fair-share scheduling of leased virtual clusters."""

    def __init__(self, sim: Simulator, federation: Federation,
                 queue: JobQueue, leases: LeaseManager, image_name: str,
                 metrics: MetricsRecorder,
                 spot_markets: Optional[Dict[str, object]] = None,
                 config: Optional[SchedulerConfig] = None):
        self.sim = sim
        self.federation = federation
        self.queue = queue
        self.leases = leases
        self.image_name = image_name
        self.metrics = metrics
        #: Optional per-cloud :class:`~repro.cloud.spot.SpotMarket`
        #: consulted for placement pricing.
        self.spot_markets = spot_markets or {}
        self.config = config or SchedulerConfig()
        #: Nodes promised to in-flight provisions, per cloud.
        self._committed: Dict[str, int] = {n: 0 for n in federation.clouds}
        #: Nodes promised to in-flight provisions, per tenant (so node
        #: quotas hold before the lease materializes).
        self._tenant_inflight: Dict[str, int] = {}
        #: Spot capacity subsystem, when the control plane enables it
        #: (:class:`~repro.controlplane.spot.SpotCapacityManager`).
        self.spot = None
        self.jobs_completed = 0
        self.jobs_requeued = 0
        self.jobs_failed = 0
        self.grows = 0
        self.shrinks = 0
        self.backfills = 0
        self.preemptions = 0
        self._loop: Optional[Process] = None
        self._running = False
        # Expired leases with a live job come back through the queue.
        leases.on_expire = self._lease_expired

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Process:
        """Start the scheduling loop (idempotent)."""
        if self._loop is None or not self._loop.is_alive:
            self._running = True
            self._loop = self.sim.process(self._run(), name="fair-share")
        return self._loop

    def stop(self) -> None:
        self._running = False

    def _run(self):
        while self._running:
            self._dispatch_round()
            # Malleable jobs always grow and shrink with queue pressure.
            self._adjust_elastic()
            self.metrics.record("lease.utilization",
                                self.leases.utilization())
            yield self.sim.any_of([self.sim.timeout(self.config.interval),
                                   self.queue.arrival])

    # -- fair share ------------------------------------------------------

    def effective_usage(self, tenant: Tenant) -> float:
        """Charged usage plus the expected work of outstanding grants.

        Reserving a job's full node-seconds at dispatch (reconciled
        when its lease ends) makes consecutive grants in one round see
        each other — without it a single tenant sweeps every free slot
        before its in-flight leases accrue any billable age."""
        return tenant.usage + tenant.reserved

    def _ranked_tenants(self) -> List[Tenant]:
        """Tenants with queued work, most underserved first."""
        with_work = [t for t in self.queue.tenants.values()
                     if self.queue.depth(t.name) > 0]
        return sorted(with_work,
                      key=lambda t: (self.effective_usage(t) / t.weight,
                                     t.name))

    # -- placement -------------------------------------------------------

    def _available(self, cloud: Cloud) -> int:
        return max(0, cloud.capacity(self.config.spec)
                   - self._committed[cloud.name])

    def _price(self, cloud: Cloud) -> float:
        """Effective hourly price: the local spot market when cheaper."""
        on_demand = cloud.pricing.on_demand_hourly
        market = self.spot_markets.get(cloud.name)
        if market is not None and market.current_price < on_demand:
            return market.current_price
        return on_demand

    def _score(self, cloud: Cloud) -> float:
        cores = sum(h.cores for h in cloud.hosts)
        used = sum(h.used_cores for h in cloud.hosts)
        utilization = used / cores if cores else 1.0
        return self._price(cloud) + UTIL_WEIGHT * utilization

    def _ranked_clouds(self) -> List[Cloud]:
        """Member clouds, best placement score first."""
        return sorted(self.federation.clouds.values(),
                      key=lambda c: (self._score(c), c.name))

    def _capacity_view(self) -> CapacityView:
        """Score and query every cloud once for a decision point.

        Scores and availability change only when nodes are committed or
        released, hosts are placed or evicted, a price moves or the
        clock moves.  A dispatch only commits nodes (its hosts are
        placed later, by the provisioning process), so :meth:`_carry`
        keeps a view exact across dispatches: a dispatch round reads one
        view until it preempts or attempts a backfill."""
        clouds = self._ranked_clouds()
        available = {c.name: self._available(c) for c in clouds}
        return clouds, available, sum(available.values())

    @staticmethod
    def _carry(view: CapacityView, allocation: Dict[str, int]
               ) -> CapacityView:
        """``view`` after a dispatch of ``allocation``: what a fresh
        :meth:`_capacity_view` would read.  The grant came out of the
        view, so no cloud's availability drops below zero and the
        clamp in :meth:`_available` never acts; scores read placed
        hosts only, so the order stands."""
        clouds, available, total = view
        for name, count in allocation.items():
            available[name] -= count
        return clouds, available, total - sum(allocation.values())

    def _allocate(self, job: Job, view: CapacityView
                  ) -> Optional[Dict[str, int]]:
        """Pick clouds for ``job`` from ``view``, or None if it must wait."""
        clouds, available, total = view
        if total < job.min_nodes:
            return None
        target = min(job.n_nodes, total)
        # Best single cloud that fits the whole grant wins (locality).
        for cloud in clouds:
            if available[cloud.name] >= target:
                return {cloud.name: target}
        # Otherwise span, filling in score order.
        allocation: Dict[str, int] = {}
        remaining = target
        for cloud in clouds:
            take = min(remaining, available[cloud.name])
            if take:
                allocation[cloud.name] = take
                remaining -= take
            if remaining == 0:
                break
        return allocation

    def _within_tenant_quota(self, job: Job, n: int) -> bool:
        tenant = self.queue.tenants[job.tenant]
        if tenant.max_nodes is None:
            return True
        held = sum(l.n_nodes for l in self.leases.active_leases()
                   if l.tenant == job.tenant)
        held += self._tenant_inflight.get(job.tenant, 0)
        return held + n <= tenant.max_nodes

    # -- dispatch --------------------------------------------------------

    def _dispatch_round(self) -> None:
        progressed = True
        view: Optional[CapacityView] = None
        while progressed and self.queue.depth() > 0:
            progressed = False
            starved_head: Optional[Job] = None
            if view is None:
                view = self._capacity_view()
            for tenant in self._ranked_tenants():
                job = self.queue.peek(tenant.name)
                allocation = self._allocate(job, view)
                if allocation is None:
                    # Capacity-blocked: the most underserved such head
                    # drives preemption and the backfill reservation.
                    if starved_head is None:
                        starved_head = job
                    continue
                if not self._within_tenant_quota(job, sum(allocation.values())):
                    continue
                self._dispatch(job, allocation)
                view = self._carry(view, allocation)
                progressed = True
                break  # re-rank: the grant changed effective usage
            if progressed or starved_head is None:
                continue
            if self._starved(starved_head):
                preemptions = self.preemptions
                if self._preempt_for(starved_head, view[2]):
                    progressed = True
                    view = None
                    continue
                if self.preemptions != preemptions:
                    # It reclaimed leases, if none with nodes: the view
                    # must be read afresh.
                    view = self._capacity_view()
            if self.config.backfill and self._backfill(starved_head, view):
                progressed = True
            view = None

    def _dispatch(self, job: Job, allocation: Dict[str, int]) -> None:
        n = sum(allocation.values())
        self.queue.take(job)
        for name, count in allocation.items():
            self._committed[name] += count
        self._tenant_inflight[job.tenant] = (
            self._tenant_inflight.get(job.tenant, 0) + n)
        # Reserve the *remaining* work: a requeued job's progress credit
        # must not count against its tenant's fair share twice.
        job._reserved_work = job.work_remaining
        self.queue.tenants[job.tenant].reserved += job._reserved_work
        transition(job, JobState.PROVISIONING, cause="dispatch",
                   reserve=job._reserved_work, allocation=dict(allocation))
        job._runner = self.sim.process(
            self._run_job(job, allocation),
            name=f"run-{job.name}",
        )

    def _unreserve(self, job: Job) -> None:
        """Return the job's dispatched reservation to its tenant."""
        self.queue.tenants[job.tenant].reserved -= job._reserved_work
        job._reserved_work = 0.0

    # -- EASY backfill ---------------------------------------------------

    def _release_schedule(self) -> List[tuple]:
        """Estimated ``(time, nodes)`` releases of active leases,
        soonest first: a running job frees its nodes when its remaining
        work drains at the current cluster size; anything else frees
        them at lease expiry (the sweeper's backstop)."""
        out = []
        now = self.sim.now
        for lease in self.leases.active_leases():
            n = len(lease.cluster.vms)
            if n == 0:
                continue
            job = lease.job
            if job is not None and job.state is JobState.RUNNING:
                est = now + job.work_remaining / n
            else:
                est = lease.expires_at
            out.append((est, n))
        out.sort()
        return out

    def _backfill(self, head: Job, view: CapacityView) -> bool:
        """EASY backfill bounded by the blocked head's reservation.

        The head gets a *shadow time*: the earliest instant the release
        schedule accumulates its ``min_nodes``.  A smaller queued job
        may start now only if it either finishes (plus slack) before the
        shadow time, or fits in the nodes the head will leave spare —
        so backfilling never delays the reservation it jumped.

        ``view`` is the round's current capacity view.  With no free
        node nothing can start (every job needs ``min_nodes >= 1``);
        with no spare node and a shadow time closer than the slack no
        job can jump the head; and a job needing more nodes than are
        free is skipped before :meth:`_allocate`, which would refuse
        it."""
        pick = self._backfill_pick(head, view)
        if pick is None:
            return False
        job, allocation = pick
        self._dispatch(job, allocation)
        self.backfills += 1
        job.span.event("backfilled", ahead_of=head.name)
        self.metrics.record("jobs.backfilled", self.backfills)
        return True

    def _backfill_pick(self, head: Job, view: CapacityView
                       ) -> Optional[Tuple[Job, Dict[str, int]]]:
        """The job :meth:`_backfill` starts ahead of ``head``, with its
        allocation, or None."""
        free = view[2]
        if free == 0:
            return None
        target = head.min_nodes
        shadow = self.sim.now
        pool = free
        for est, n in self._release_schedule():
            if pool >= target:
                break
            pool += n
            shadow = est
        if pool < target:
            # Even a full drain cannot seat the head (it is waiting on
            # in-flight provisions/growth): nothing to protect yet.
            shadow = float("inf")
        spare = pool - target
        now = self.sim.now
        if spare < 1 and now + BACKFILL_SLACK > shadow:
            # Every candidate would delay the head: it needs a node the
            # head leaves spare, or to end (plus slack) by the shadow
            # time, and even a job ending at once ends too late.
            return None
        for tenant in self._ranked_tenants():
            for job in self.queue.queued_jobs(tenant.name):
                if job is head or job.min_nodes > free:
                    continue
                # What _allocate would grant: min(n_nodes, free) nodes.
                k = min(job.n_nodes, free)
                if not self._within_tenant_quota(job, k):
                    continue
                est_end = now + job.work_remaining / k + BACKFILL_SLACK
                if est_end > shadow and k > spare:
                    continue  # would delay the head's reservation
                return job, self._allocate(job, view)
        return None

    # -- starvation preemption -------------------------------------------

    def _starved(self, job: Job) -> bool:
        """Head job blocked long enough to justify preempting for it.

        Waiting is counted from the job's *last* queue entry: a job the
        scheduler itself just requeued (preemption, reclamation) must
        wait out the patience again rather than instantly re-triggering
        preemption — otherwise a saturated queue preempts every round
        and jobs ping-pong until they exhaust ``max_attempts``."""
        if self.spot is None or not self.spot.policy.preemption:
            return False
        since = job.queued_at if job.queued_at is not None else job.submitted_at
        if since is None:
            return False
        return self.sim.now - since > self.spot.policy.starvation_patience

    def _preempt_for(self, head: Job, free: int) -> bool:
        """Reclaim spot-backed leases from materially better-served
        tenants until the starving ``head`` fits in ``free`` nodes plus
        the reclaimed ones, reusing the spot subsystem's
        requeue-with-progress path.  Preempts at most one round's worth;
        returns True if any lease was reclaimed.

        A victim tenant must exceed the starved tenant's share by
        :data:`PREEMPTION_IMBALANCE`: under steady contention fair-share
        keeps shares within epsilon of each other, and preempting over
        epsilon differences just trades places every round."""
        victims = self._preemption_victims(head)
        if not victims:
            return False
        needed = head.min_nodes - free
        reclaimed = 0
        for lease in victims:
            if reclaimed >= needed:
                break
            reclaimed += self.spot.preempt(lease, reason="fair-share")
            self.preemptions += 1
            self.metrics.record("jobs.preempted", self.preemptions)
            self.metrics.counter(
                "preemptions", labels={"tenant": lease.tenant}).inc()
        return reclaimed > 0

    def _preemption_victims(self, head: Job) -> List[Lease]:
        """Running spot-backed leases of tenants whose share exceeds the
        starved tenant's by :data:`PREEMPTION_IMBALANCE`, most
        over-served tenant first, newest lease first (their jobs have
        the least sunk progress).  When no other tenant is over the
        floor there is no victim, and the leases are not walked."""
        starved_tenant = self.queue.tenants[head.tenant]
        starved_share = (self.effective_usage(starved_tenant)
                         / starved_tenant.weight)
        floor = starved_share * PREEMPTION_IMBALANCE

        def share_of(name: str) -> float:
            t = self.queue.tenants[name]
            return self.effective_usage(t) / t.weight

        if not any(name != head.tenant and share_of(name) > floor
                   for name in self.queue.tenants):
            return []
        victims = [
            l for l in self.spot.preemptible_leases()
            if l.tenant != head.tenant
            and l.job is not None and l.job.state is JobState.RUNNING
            and share_of(l.tenant) > floor
        ]
        victims.sort(key=lambda l: (-share_of(l.tenant), -l.id))
        return victims

    def _run_job(self, job: Job, allocation: Dict[str, int]):
        cfg = self.config
        n = sum(allocation.values())
        tracer = tracer_of(self.sim)
        pspan = tracer.start("provision", parent=job.span, nodes=n)
        federation = self.federation
        try:
            batches = federation.launch(self.image_name, allocation,
                                        job.name, cfg.spec)
            # Leased clusters skip the contextualization barrier:
            # control-plane jobs use no master/worker roles.
            cluster = yield from federation.assemble(
                job.name, self.image_name, batches, contextualize=False)
        except (CloudError, FederationError):
            # Lost a provisioning race; back in the queue untouched.
            pspan.end(status="error")
            unreserved = job._reserved_work
            self._unreserve(job)
            self.queue.resubmit(job, cause="provision-failed",
                                unreserve=unreserved)
            return
        finally:
            for name, count in allocation.items():
                self._committed[name] -= count
            self._tenant_inflight[job.tenant] -= n
        pspan.end()

        lease = self.leases.grant(job.tenant, cluster, cfg.lease_term,
                                  job=job)
        job.attempts += 1
        transition(job, JobState.RUNNING, cause="provisioned",
                   lease=lease.id)
        job.span.event("lease-granted", lease=lease.id, nodes=n)
        if self.spot is not None:
            self.spot.back_lease(lease, job, allocation)
        if job.started_at is None:
            job.started_at = self.sim.now
            self.metrics.record("queue.wait", job.wait_time)
            self.metrics.histogram(
                "queue.wait",
                labels={"tenant": job.tenant}).observe(job.wait_time)

        rspan = tracer.start("run", parent=job.span, attempt=job.attempts)
        run = _Run(self, job, lease)
        try:
            yield from self._run_ticks(run)
        except Interrupt as intr:
            run.live = False
            rspan.end(status=str(intr.cause) if intr.cause else "interrupted")
            return  # requeue/teardown handled by the interrupter
        rspan.end()

        job._runner = None
        job.finished_at = self.sim.now
        unreserved = job._reserved_work
        self._unreserve(job)
        transition(job, JobState.COMPLETED, cause="work-done",
                   unreserve=unreserved)
        self.queue.tenants[job.tenant].jobs_completed += 1
        self.jobs_completed += 1
        if lease.active:
            self.leases.release(lease)
        self.metrics.record("jobs.completed", self.jobs_completed)
        self.metrics.record("job.turnaround", job.turnaround)
        job.span.set(attempts=job.attempts,
                     turnaround=job.turnaround).end()
        job.done.succeed(job)

    def _run_ticks(self, run: "_Run"):
        """Tick ``run`` until its job's work is done: each tick takes
        ``nodes * dt`` node-seconds off it."""
        job = run.job
        while job.work_remaining > 0:
            if self._plan_tick(run):
                # The kernel ticks the run from here (_Run.tick) and
                # wakes it for the first tick that is not pure.
                run.wake = self.sim.event()
                yield run.wake
            else:
                yield self.sim.timeout(run.dt)
            job.work_remaining = max(
                0.0, job.work_remaining - run.nodes * run.dt)

    def _plan_tick(self, run: "_Run") -> bool:
        """Size ``run``'s next tick at the current cluster size, renew
        the lease if the tick would outlast it, and draw the tick.

        A *pure* next tick (a full ``interval`` that leaves work to do)
        is drawn as :meth:`_Run.tick` through
        :meth:`~repro.simkernel.Simulator.tick_in`, so in-phase runs
        share a kernel entry, and True is returned.  Any other tick is
        left to the caller to draw, under the next seq."""
        interval = self.config.interval
        job = run.job
        work = job.work_remaining
        nodes = max(1, len(run.lease.cluster.vms))
        dt = min(interval, work / nodes)
        lease = run.lease
        sim = self.sim
        if lease.expires_at - sim._now < dt + interval:  # lease.remaining
            self.leases.renew(lease)
            job.span.event("lease-renewed", lease=lease.id)
        run.nodes = nodes
        run.dt = dt
        if dt != interval or work - nodes * dt <= 0:
            return False
        sim.tick_in(dt, run.tick)
        return True

    # -- self-healing / requeue -----------------------------------------

    def requeue(self, lease: Lease, reason: str = "requeue") -> None:
        """Pull a lease's job back into the queue (failed VM, drain,
        expiry, spot reclamation, preemption).  Releases the lease if
        still active; the job keeps its completed node-seconds and
        resumes from them unless it exhausted ``max_attempts``."""
        job = lease.job
        if job is None or job.state is not JobState.RUNNING:
            if lease.active:
                self.leases.release(lease)
            return
        runner = job._runner
        if (runner is not None and runner.is_alive
                and runner is not self.sim.active_process):
            runner.interrupt(reason)
        job._runner = None
        unreserved = job._reserved_work
        self._unreserve(job)
        if lease.active:
            self.leases.release(lease)
        if job.attempts >= self.config.max_attempts:
            job.finished_at = self.sim.now
            transition(job, JobState.FAILED, cause="max-attempts",
                       unreserve=unreserved)
            self.jobs_failed += 1
            self.metrics.record("jobs.failed", self.jobs_failed)
            job.span.set(attempts=job.attempts).end(status="failed")
            job.done.succeed(job)
            return
        job.span.event("requeued", reason=reason,
                       progress=round(job.progress, 3))
        self.jobs_requeued += 1
        self.metrics.record("jobs.requeued", self.jobs_requeued)
        self.queue.resubmit(job, cause=reason, unreserve=unreserved)

    def _lease_expired(self, lease: Lease) -> None:
        self.requeue(lease, reason="lease-expired")

    # -- elasticity ------------------------------------------------------

    def _elastic_leases(self) -> List[Lease]:
        return [l for l in self.leases.elastic_leases()
                if l.job.state is JobState.RUNNING]

    def _adjust_elastic(self) -> None:
        leases = self._elastic_leases()
        if not leases:
            return
        if self.queue.depth() > 0:
            # Pressure: shrink one over-provisioned cluster to min_nodes.
            for lease in leases:
                job = lease.job
                excess = len(lease.cluster.vms) - job.min_nodes
                if excess <= 0:
                    continue
                victims = [vm for vm in reversed(lease.cluster.vms)
                           if vm is not lease.cluster.master][:excess]
                if not victims:
                    continue
                self.federation.shrink_cluster(lease.cluster, victims)
                self.shrinks += 1
                self.metrics.record("elastic.shrink", self.shrinks)
                return
        else:
            # Idle capacity: grow the oldest malleable job.
            for lease in leases:
                job = lease.job
                gap = job.max_nodes - len(lease.cluster.vms)
                if gap <= 0:
                    continue
                for cloud in self._ranked_clouds():
                    take = min(gap, self._available(cloud))
                    if take > 0:
                        self._committed[cloud.name] += take
                        self.sim.process(
                            self._grow(lease, cloud.name, take),
                            name=f"grow-{job.name}",
                        )
                        return
                return

    def replace_nodes(self, lease: Lease, count: int):
        """Grow ``count`` replacement nodes into a healing lease's
        cluster, cheapest clouds first (generator for the health
        monitor; raises :class:`CloudError` if the federation cannot
        hold the replacements)."""
        remaining = count
        for cloud in self._ranked_clouds():
            take = min(remaining, self._available(cloud))
            if take <= 0:
                continue
            self._committed[cloud.name] += take
            try:
                vms = yield self.federation.grow_cluster(
                    lease.cluster, take, cloud.name)
            finally:
                self._committed[cloud.name] -= take
            if not lease.active:
                self._dispose_orphans(lease, vms)
                return
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            raise CloudError(
                f"no capacity to replace {remaining} nodes of lease "
                f"#{lease.id}"
            )

    def _grow(self, lease: Lease, cloud_name: str, count: int):
        try:
            vms = yield self.federation.grow_cluster(
                lease.cluster, count, cloud_name)
        except (CloudError, FederationError):
            return
        finally:
            self._committed[cloud_name] -= count
        self.grows += 1
        self.metrics.record("elastic.grow", self.grows)
        if not lease.active:
            self._dispose_orphans(lease, vms)

    def _dispose_orphans(self, lease: Lease, vms) -> None:
        """Terminate VMs grown into a lease that ended mid-boot."""
        for vm in vms:
            self.federation.terminate(vm, lease.cluster)

    def __repr__(self):
        return (f"<FairShareScheduler queued={self.queue.depth()} "
                f"active={len(self.leases.active_leases())} "
                f"done={self.jobs_completed}>")


class _Run:
    """One attempt's run phase: what its ticks read and write.

    ``nodes`` and ``dt`` are the size and length of the tick drawn
    last; ``wake`` is the event the runner process waits on while the
    kernel ticks it; ``live`` drops when the runner is interrupted."""

    __slots__ = ("scheduler", "job", "lease", "nodes", "dt", "wake", "live")

    def __init__(self, scheduler: FairShareScheduler, job: Job,
                 lease: Lease):
        self.scheduler = scheduler
        self.job = job
        self.lease = lease
        self.nodes = 1
        self.dt = 0.0
        self.wake: Optional[Event] = None
        self.live = True

    def tick(self, _event: Event) -> None:
        """A pure tick, as the runner would take it: it updates the
        work, re-reads the cluster size, maybe renews the lease (which
        queues nothing) and draws the next tick.  A next tick that is
        not pure wakes the runner under the seq its timeout would have
        drawn.  An interrupted runner's timeout would fire as a no-op."""
        if not self.live:
            return
        job = self.job
        job.work_remaining = max(
            0.0, job.work_remaining - self.nodes * self.dt)
        scheduler = self.scheduler
        if not scheduler._plan_tick(self):
            wake = self.wake
            wake._ok = True
            wake._value = None
            scheduler.sim.schedule(wake, NORMAL, self.dt)
