"""Spot-backed capacity: the control plane's economic scheduling layer.

The paper's §IV machinery (spot markets, migratable spot instances,
checkpoint/restart) exists below the control plane but — until this
module — the scheduler only ever *looked* at spot prices for placement
scoring.  :class:`SpotCapacityManager` closes the loop: leased virtual
clusters are *backed* by spot enrollments whenever the market beats
on-demand, bids come from a pluggable
:class:`~repro.controlplane.bidding.BiddingStrategy`, and every
reclamation warning is answered per-VM with the cheapest response that
preserves the tenant's work:

1. **rescue** — live-migrate the VM to the cheapest non-reclaiming
   member cloud inside the grace window (the paper's migratable spot
   instance), via :class:`~repro.sky.spot_manager.MigratableSpotManager`;
2. **checkpoint-restart** — if a recent snapshot exists at the refuge
   cloud (:class:`~repro.sky.checkpoint.CheckpointingSpotManager`), let
   the provider kill the VM and restore a replacement into the same
   lease;
3. **requeue with progress credit** — fall back to requeueing the
   lease's job; the queue keeps its completed node-seconds
   (:meth:`~repro.controlplane.queue.JobQueue.resubmit`), so only the
   current dispatch is lost, not the work.

Every outcome feeds back into lease health (clusters are scrubbed and
repaired in place), fair-share commitment accounting (through the
scheduler's requeue path) and per-tenant cost metrics: realized savings
versus on-demand are first-class observables, computed from the billing
meters rather than re-derived.  The same machinery also serves
scheduler-initiated **preemption**: when an underserved tenant would
starve, the fair-share scheduler reclaims spot-backed leases from
over-served tenants through :meth:`SpotCapacityManager.preempt`, which
is exactly the requeue-with-progress path under a different trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cloud.provider import CloudError
from ..cloud.spot import SpotInstance, SpotMarket
from ..hypervisor.host import CapacityError
from ..hypervisor.migration import MigrationError
from ..metrics import MetricsRecorder
from ..obs.trace import NULL_SPAN, tracer_of
from ..simkernel.core import Simulator
from ..sky.checkpoint import CheckpointingSpotManager
from ..sky.federation import Federation, FederationError
from ..sky.spot_manager import MigratableSpotManager
from .bidding import BiddingStrategy, OnDemandClip
from .jobs import JobState
from .lease import Lease, LeaseManager
from .statemachine import record


@dataclass
class SpotPolicy:
    """How the control plane uses (and defends) spot capacity."""

    #: Chooses the bid per (cloud, job); None from the strategy or a
    #: market above ``min_advantage * on_demand`` keeps that placement
    #: on demand.
    strategy: BiddingStrategy = field(default_factory=OnDemandClip)
    #: Enroll only while the spot price is below this fraction of the
    #: cloud's on-demand price — below 1.0 guarantees headroom.
    min_advantage: float = 0.9
    #: Attempt grace-window live migration on reclamation warnings.
    rescue: bool = True
    #: Cloud receiving periodic checkpoints of spot-backed VMs (None
    #: disables the checkpoint-restart response).
    refuge: Optional[str] = None
    #: Snapshot period for checkpoint protection.
    checkpoint_interval: float = 600.0
    #: Allow the fair-share scheduler to preempt spot-backed leases of
    #: over-served tenants for starving underserved ones.
    preemption: bool = True
    #: Queue wait after which an undispatchable head job counts as
    #: starving (the preemption trigger).
    starvation_patience: float = 900.0

    def __post_init__(self):
        if not 0.0 < self.min_advantage <= 1.0:
            raise ValueError("min_advantage must be in (0, 1]")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.starvation_patience < 0:
            raise ValueError("starvation_patience must be >= 0")


@dataclass
class SpotBacking:
    """One lease node enrolled on a spot market."""

    inst: SpotInstance
    market: SpotMarket
    lease: Lease
    tenant: str
    od_rate: float
    enrolled_at: float
    #: The response chosen during the grace window ("rescue" /
    #: "checkpoint" / "requeue"), pending the market's resolution.
    intent: Optional[str] = None
    #: Final outcome ("rescued" / "checkpointed" / "requeued" /
    #: "closed") once the backing ended.
    outcome: Optional[str] = None
    #: Realized cost saving vs on-demand over the spot-billed span.
    savings: float = 0.0
    finalized: bool = False
    span: object = NULL_SPAN


@dataclass
class ReclaimEvent:
    """Audit record of one resolved reclamation episode."""

    time: float
    vm_name: str
    cloud: str
    tenant: Optional[str]
    outcome: str
    detail: str = ""


class SpotCapacityManager:
    """Backs control-plane leases with bid-priced spot capacity.

    Wired by :class:`~repro.controlplane.plane.ControlPlane`: the
    scheduler calls :meth:`back_lease` after each grant and
    :meth:`preempt` on starvation; the manager installs itself as every
    market's reclamation handler and as the lease manager's teardown
    observer, so enrollments never outlive their leases.

    Only the nodes provisioned with the original grant are enrolled;
    VMs added later (elastic growth, healing replacements, restored
    checkpoints) run on demand.
    """

    def __init__(self, sim: Simulator, federation: Federation,
                 markets: Dict[str, SpotMarket],
                 leases: LeaseManager, scheduler, metrics: MetricsRecorder,
                 policy: Optional[SpotPolicy] = None):
        self.sim = sim
        self.federation = federation
        self.markets = dict(markets)
        self.leases = leases
        self.scheduler = scheduler
        self.policy = policy or SpotPolicy()
        self.metrics = metrics
        self.rescuer = MigratableSpotManager(federation)
        self.checkpoints: Optional[CheckpointingSpotManager] = None
        if self.policy.refuge is not None:
            self.checkpoints = CheckpointingSpotManager(
                federation, self.policy.refuge,
                interval=self.policy.checkpoint_interval)
        #: vm name -> its (latest) backing.
        self._backings: Dict[str, SpotBacking] = {}
        #: lease id -> {vm name: backing}: ``_backings`` restricted to
        #: one lease, in the same order; dropped at the lease's teardown.
        self._by_lease: Dict[int, Dict[str, SpotBacking]] = {}
        self.events: List[ReclaimEvent] = []
        self.enrolled_count = 0
        #: Resolved reclamation outcomes (aggregate).
        self.outcomes: Dict[str, int] = {
            "rescued": 0, "checkpointed": 0, "requeued": 0}
        self.preemptions = 0
        self.savings_by_tenant: Dict[str, float] = {}
        for market in self.markets.values():
            market.reclaim_handler = self._make_handler(market)
            market.on_resolution = self._resolved
        leases.on_teardown = self._lease_teardown

    # -- enrollment ------------------------------------------------------

    def back_lease(self, lease: Lease, job, allocation: Dict[str, int]
                   ) -> int:
        """Enroll the lease's nodes on their clouds' spot markets where
        the strategy bids and the market beats on-demand; returns the
        number of nodes now spot-backed."""
        policy = self.policy
        tracer = tracer_of(self.sim)
        backed = 0
        for cloud_name in allocation:
            market = self.markets.get(cloud_name)
            if market is None:
                continue
            cloud = market.cloud
            od = cloud.pricing.on_demand_hourly
            if market.current_price >= policy.min_advantage * od:
                continue  # not (enough of) a bargain right now
            bid = policy.strategy.bid(market, cloud, job)
            if bid is None:
                continue
            span = tracer.start("spot-bid", parent=job.span,
                                cloud=cloud_name, bid=bid,
                                price=market.current_price)
            nodes = 0
            for vm in lease.cluster.members_at(cloud_name):
                if vm.name in self._backings and \
                        self._backings[vm.name].inst.alive:
                    continue
                inst = market.enroll(vm, bid)
                self._add_backing(SpotBacking(
                    inst=inst, market=market, lease=lease,
                    tenant=lease.tenant, od_rate=od,
                    enrolled_at=self.sim.now))
                record(self.sim, "spot", vm.name, to="enrolled",
                       cause="back-lease", cloud=cloud_name, bid=bid,
                       lease=lease.id, tenant=lease.tenant)
                if (self.checkpoints is not None
                        and not self.checkpoints.protected(vm.name)):
                    self.checkpoints.protect(vm)
                nodes += 1
            span.set(nodes=nodes).end()
            if nodes:
                backed += nodes
                self.enrolled_count += nodes
                job.span.event("spot-backed", cloud=cloud_name, bid=bid,
                               nodes=nodes)
                self.metrics.counter("spot.enrolled").inc(nodes)
                self.metrics.counter(
                    f"spot.enrolled.{lease.tenant}").inc(nodes)
        return backed

    def _add_backing(self, backing: SpotBacking) -> None:
        name, lease_id = backing.inst.vm.name, backing.lease.id
        old = self._backings.get(name)
        self._backings[name] = backing
        if old is not None and old.lease.id != lease_id:
            # Re-enrolled under another lease, the VM keeps its first
            # slot in ``_backings``: rebuild the new lease's entry in
            # that order.
            self._by_lease.get(old.lease.id, {}).pop(name, None)
            self._by_lease[lease_id] = {
                n: b for n, b in self._backings.items()
                if b.lease.id == lease_id}
        else:
            # A new key appends; a re-enrolled one keeps its slot.
            self._by_lease.setdefault(lease_id, {})[name] = backing

    def backings_of(self, lease: Lease) -> List[SpotBacking]:
        """Live spot backings of one lease."""
        return [b for b in self._by_lease.get(lease.id, {}).values()
                if b.lease is lease and b.inst.alive]

    # -- the grace-window decision ---------------------------------------

    def _reclaiming_clouds(self) -> set:
        """Clouds with a reclamation episode in flight — ruled out as
        rescue destinations (their capacity is about to be contested)."""
        return {name for name, m in self.markets.items() if m._reclaiming}

    def _make_handler(self, market: SpotMarket):
        return lambda inst: self.sim.process(
            self._respond(market, inst),
            name=f"spot-respond-{inst.vm.name}")

    def _can_restore(self, inst: SpotInstance) -> bool:
        return (self.checkpoints is not None
                and inst.vm.name in self.checkpoints.last_checkpoint
                and self.checkpoints.refuge.capacity() >= 1)

    def _respond(self, market: SpotMarket, inst: SpotInstance):
        """The reclamation warning just arrived: pick and (for rescue)
        execute the response inside the grace window.  Returns True iff
        the VM was moved to safety."""
        backing = self._backings.get(inst.vm.name)
        exclude = self._reclaiming_clouds() - {market.cloud.name}
        span = NULL_SPAN
        if backing is not None:
            # Episode spans only for lease-backed instances: direct
            # market users have no resolution callback of ours to end
            # the span at.
            span = tracer_of(self.sim).start(
                f"spot-reclaim:{inst.vm.name}", track="spot",
                vm=inst.vm.name, cloud=market.cloud.name, bid=inst.bid,
                price=market.current_price, tenant=backing.tenant)
            backing.span = span
        self.metrics.counter("spot.reclaim_warnings").inc()
        if backing is not None:
            self.metrics.counter(
                "spot.reclaims",
                labels={"tenant": backing.tenant,
                        "cloud": market.cloud.name}).inc()
        if (self.policy.rescue
                and self.rescuer.feasible(inst, market.reclaim_grace,
                                          exclude=exclude)):
            if backing is not None:
                backing.intent = "rescue"
            span.event("decision", choice="rescue")
            timer = self.metrics.timer("spot.rescue_time").time(self.sim)
            rescued = yield self.rescuer.rescue(market, inst,
                                                exclude=exclude)
            if rescued:
                timer.stop()
                span.event("rescued", to=inst.vm.site)
                return True
            timer.fail()
            span.event("rescue-failed")
        if backing is not None and self._can_restore(inst):
            backing.intent = "checkpoint"
            span.event("decision", choice="checkpoint")
            return False
        if backing is not None:
            backing.intent = "requeue"
            span.event("decision", choice="requeue",
                       progress=backing.lease.job.progress
                       if backing.lease.job else 0.0)
        return False

    # -- resolution (the market's verdict) --------------------------------

    def _resolved(self, inst: SpotInstance, outcome: str) -> None:
        backing = self._backings.get(inst.vm.name)
        if backing is None or backing.inst is not inst:
            return  # not a lease-backed instance; nothing to repair
        if outcome == "survived":
            backing.intent = None
            backing.span.end(status="survived")
            backing.span = NULL_SPAN
            self._record(inst, backing, "survived")
            return
        if outcome == "closed":
            # Retired mid-episode (lease ended / preemption), and its
            # savings finalized by whoever retired it; or its VM was
            # terminated under it (a failed VM the health check
            # scrubbed), and the spot chapter ends here.
            self._finalize(backing, "closed")
            backing.span.end(status="closed")
            self._record(inst, backing, "closed")
            return
        if outcome == "rescued":
            # The VM lives on at the destination cloud, billed at the
            # destination's on-demand price; the spot chapter is over.
            if self.checkpoints is not None:
                self.checkpoints.unprotect(inst.vm.name)
            self._finalize(backing, "rescued")
            backing.span.set(to=inst.vm.site).end(status="rescued")
            self._record(inst, backing, "rescued",
                         detail=f"-> {inst.vm.site}")
            return
        # outcome == "reclaimed": the provider killed the VM at the end
        # of the grace window.  Repair the lease along the intent chosen
        # during the grace (checkpoint restore beats requeue when both
        # are possible).
        intent = backing.intent or "requeue"
        lease = backing.lease
        # The market already terminated and unbilled the VM: this only
        # drops it from its cluster and the overlay.
        self.federation.terminate(inst.vm, lease.cluster)
        if (intent == "checkpoint" and self._can_restore(inst)
                and lease.active and lease.job is not None
                and lease.job.state is JobState.RUNNING):
            self.sim.process(self._restore(backing, inst),
                             name=f"spot-restore-{inst.vm.name}")
            return  # finalized (and recorded) when the restore lands
        self._finalize(backing, "requeued")
        backing.span.end(status="requeued")
        self._record(inst, backing, "requeued", detail="reclaimed")
        if self.checkpoints is not None:
            self.checkpoints.unprotect(inst.vm.name)
        if lease.active and lease.job is not None \
                and lease.job.state is JobState.RUNNING:
            self.scheduler.requeue(lease, reason="spot-reclaimed")

    def _restore(self, backing: SpotBacking, inst: SpotInstance):
        """Checkpoint-restart: provision a replacement at the refuge
        from the last snapshot and graft it into the lease."""
        lease = backing.lease
        was_master = lease.cluster.master is inst.vm
        rspan = tracer_of(self.sim).start("spot-restore",
                                          parent=backing.span,
                                          vm=inst.vm.name)
        try:
            # A failed restore leaves through the timer's __exit__, so
            # its duration lands in spot.restore_time.failed.
            with self.metrics.timer("spot.restore_time").time(self.sim):
                new_vm, record = yield self.checkpoints.restore(
                    inst, lease.cluster.image_name)
        except (CloudError, FederationError, MigrationError, CapacityError,
                ValueError):
            rspan.end(status="error")
            self._finalize(backing, "requeued")
            backing.span.end(status="requeued")
            self._record(inst, backing, "requeued",
                         detail="restore failed")
            if lease.active and lease.job is not None \
                    and lease.job.state is JobState.RUNNING:
                self.scheduler.requeue(lease, reason="spot-restore-failed")
            return
        if not lease.active:
            # The lease ended while the restore was in flight: the
            # replacement is an orphan — return it immediately.
            self.federation.terminate(new_vm)
            rspan.end(status="orphaned")
            self._finalize(backing, "checkpointed")
            backing.span.end(status="checkpointed")
            self._record(inst, backing, "checkpointed", detail="orphaned")
            return
        self.federation.overlay.register(new_vm)
        lease.cluster.vms.append(new_vm)
        if was_master:
            lease.cluster.master = new_vm
        rspan.set(new_vm=new_vm.name,
                  lost_seconds=record.checkpoint_age).end()
        self._finalize(backing, "checkpointed")
        backing.span.set(new_vm=new_vm.name).end(status="checkpointed")
        self._record(inst, backing, "checkpointed",
                     detail=f"restored as {new_vm.name}")

    # -- preemption (scheduler-initiated reclamation) ---------------------

    def preemptible_leases(self) -> List[Lease]:
        """Active leases with at least one live spot backing — the only
        capacity fair-share preemption may reclaim."""
        leases = []
        for lease_id in sorted(self._by_lease):
            for b in self._by_lease[lease_id].values():
                if b.inst.alive and b.lease.active:
                    leases.append(b.lease)
                    break
        return leases

    def preempt(self, lease: Lease, reason: str = "preemption") -> int:
        """Reclaim a spot-backed lease for fair share: every backing is
        retired as requeued-with-progress and the job re-enters the
        queue keeping its completed node-seconds.  Returns the number of
        nodes freed."""
        freed = lease.n_nodes
        span = tracer_of(self.sim).start(
            "spot-preempt", track="spot", lease=lease.id,
            tenant=lease.tenant, nodes=freed, reason=reason)
        for backing in self.backings_of(lease):
            backing.market.retire(backing.inst)
            if self.checkpoints is not None:
                self.checkpoints.unprotect(backing.inst.vm.name)
            self._finalize(backing, "requeued")
            self._record(backing.inst, backing, "requeued", detail=reason)
        self.preemptions += 1
        self.metrics.counter("spot.preemptions").inc()
        self.metrics.counter(f"spot.preempted.{lease.tenant}").inc()
        self.scheduler.requeue(lease, reason=reason)
        span.end()
        return freed

    # -- lease lifecycle ---------------------------------------------------

    def _lease_teardown(self, lease: Lease) -> None:
        """The lease is ending: retire its enrollments (back to
        on-demand terms) and book the realized savings."""
        for backing in self.backings_of(lease):
            backing.market.retire(backing.inst)
            if self.checkpoints is not None:
                self.checkpoints.unprotect(backing.inst.vm.name)
            self._finalize(backing, "closed")
        self._by_lease.pop(lease.id, None)

    # -- accounting --------------------------------------------------------

    def _finalize(self, backing: SpotBacking, outcome: str) -> None:
        """Book the backing's realized savings exactly once: the
        difference between what its closed spot segments cost and what
        the same hours would have cost on demand."""
        if backing.finalized:
            return
        backing.finalized = True
        backing.outcome = outcome
        meter = backing.market.cloud.meter
        saved = 0.0
        for start, stop, cost in meter.segments(backing.inst.vm.name):
            if start < backing.enrolled_at:
                continue  # pre-enrollment on-demand hours
            saved += (stop - start) / 3600.0 * backing.od_rate - cost
        backing.savings = saved
        tenant = backing.tenant
        self.savings_by_tenant[tenant] = (
            self.savings_by_tenant.get(tenant, 0.0) + saved)
        if outcome in self.outcomes:
            self.outcomes[outcome] += 1
        record(self.sim, "spot", backing.inst.vm.name, to=outcome,
               frm="enrolled", cause="finalize", lease=backing.lease.id,
               tenant=tenant, savings=saved)
        self.metrics.gauge(f"spot.savings.{tenant}").inc(saved)
        self.metrics.gauge("spot.savings").inc(saved)
        if outcome in self.outcomes:
            self.metrics.counter(f"spot.{outcome}").inc()
            self.metrics.counter(f"spot.{outcome}.{tenant}").inc()

    def _record(self, inst: SpotInstance, backing: Optional[SpotBacking],
                outcome: str, detail: str = "") -> None:
        self.events.append(ReclaimEvent(
            time=self.sim.now, vm_name=inst.vm.name,
            cloud=inst.cloud.name,
            tenant=backing.tenant if backing else None,
            outcome=outcome, detail=detail))

    @property
    def savings_total(self) -> float:
        return sum(self.savings_by_tenant.values())

    def resolutions(self) -> List[ReclaimEvent]:
        """Reclamation episodes that ended a backing (excludes
        transient "survived" price dips)."""
        return [e for e in self.events if e.outcome != "survived"]

    def summary(self) -> Dict[str, object]:
        warnings = sum(1 for e in self.events)
        return {
            "enrolled": self.enrolled_count,
            "reclaim_events": warnings,
            "outcomes": dict(self.outcomes),
            "preemptions": self.preemptions,
            "savings_total": self.savings_total,
            "savings_by_tenant": dict(self.savings_by_tenant),
        }

    def __repr__(self):
        return (f"<SpotCapacityManager enrolled={self.enrolled_count} "
                f"outcomes={self.outcomes} "
                f"savings={self.savings_total:.4f}>")
