"""Lease-based resource grants (Nimbus/Haizea style).

Every virtual cluster the control plane hands out is wrapped in a
:class:`Lease` with a fixed term.  Holders renew while they need the
resources; a periodic sweeper reclaims anything that expires — VMs
terminated, overlay membership dropped, capacity back in the cloud's
pool, usage charged to the tenant.  Expiry is the backstop that makes
"zero leaked leases" an invariant rather than a convention.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..metrics import MetricsRecorder
from ..simkernel import Process, Simulator
from ..sky.federation import Federation
from ..sky.virtual_cluster import VirtualCluster
from .eventlog import eventlog_of
from .jobs import Job


class LeaseState(Enum):
    ACTIVE = "active"
    RELEASED = "released"  # returned by the holder
    EXPIRED = "expired"    # reclaimed by the sweeper


class LeaseError(Exception):
    """Invalid lease operation (renewing a dead lease, ...)."""


class Lease:
    """A time-bounded grant of one virtual cluster to one tenant."""

    _ids = itertools.count(1)

    #: Initial lifecycle state (class-level: instance state changes go
    #: through :func:`repro.controlplane.statemachine.transition`).
    state: LeaseState = LeaseState.ACTIVE

    def __init__(self, sim: Simulator, tenant: str, cluster: VirtualCluster,
                 term: float, job: Optional[Job] = None):
        self.id = next(Lease._ids)
        self.sim = sim
        self.tenant = tenant
        self.cluster = cluster
        self.term = term
        self.job = job
        self.granted_at = sim.now
        self.expires_at = sim.now + term
        self.ended_at: Optional[float] = None
        self.renewals = 0
        #: Instance cost billed when the lease ended.
        self.cost = 0.0

    @property
    def active(self) -> bool:
        return self.state is LeaseState.ACTIVE

    @property
    def remaining(self) -> float:
        return self.expires_at - self.sim.now

    @property
    def n_nodes(self) -> int:
        return len(self.cluster.vms)

    def __repr__(self):
        return (f"<Lease #{self.id} tenant={self.tenant!r} "
                f"n={self.n_nodes} {self.state.value} "
                f"expires@{self.expires_at:.0f}>")


class LeaseManager:
    """Grants, renews, and reclaims leases over a federation."""

    def __init__(self, sim: Simulator, federation: Federation,
                 metrics: Optional[MetricsRecorder] = None,
                 sweep_interval: float = 30.0):
        if sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        self.sim = sim
        self.federation = federation
        self.metrics = metrics
        self.sweep_interval = sweep_interval
        #: Every lease ever granted or adopted, in grant order.
        self.leases: List[Lease] = []
        #: The active subset of ``leases``, insertion-ordered (entered
        #: at grant/adopt, dropped when teardown commits), so queries
        #: and the sweeper never rescan ended leases.
        self._live: Dict[Lease, None] = {}
        #: Called as ``on_expire(lease)`` after an expired lease's
        #: resources were reclaimed (the scheduler requeues its job).
        self.on_expire: Optional[Callable[[Lease], None]] = None
        #: Called as ``on_teardown(lease)`` at the *start* of teardown,
        #: while the cluster's VMs still exist — the spot subsystem uses
        #: it to retire market enrollments before the VMs terminate.
        self.on_teardown: Optional[Callable[[Lease], None]] = None
        #: Called as ``charge(tenant_name, node_seconds)`` at teardown.
        self.charge: Optional[Callable[[str, float], None]] = None
        self.expired_count = 0
        self._sweeper: Optional[Process] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Process:
        """Start the expiry sweeper (idempotent)."""
        if self._sweeper is None or not self._sweeper.is_alive:
            self._running = True
            self._sweeper = self.sim.process(self._sweep(),
                                             name="lease-sweeper")
        return self._sweeper

    def stop(self) -> None:
        self._running = False

    def _sweep(self):
        while self._running:
            yield self.sim.timeout(self.sweep_interval)
            if not self._running:
                return
            for lease in [l for l in self._live if l.remaining <= 0]:
                self._teardown(lease, LeaseState.EXPIRED)
                self.expired_count += 1
                if self.metrics is not None:
                    self.metrics.record("lease.expired", self.expired_count)
                    self.metrics.counter(
                        "lease.expirations",
                        labels={"tenant": lease.tenant}).inc()
                if self.on_expire is not None:
                    self.on_expire(lease)
            if self.metrics is not None:
                self.metrics.record("lease.active", len(self._live))

    # -- grants ----------------------------------------------------------

    def grant(self, tenant: str, cluster: VirtualCluster, term: float,
              job: Optional[Job] = None) -> Lease:
        if term <= 0:
            raise ValueError("lease term must be positive")
        lease = Lease(self.sim, tenant, cluster, term, job=job)
        self.adopt(lease)
        eventlog_of(self.sim).append(
            "lease", lease.id, to=LeaseState.ACTIVE.value, cause="grant",
            tenant=tenant, n=len(cluster.vms), term=term,
            job=job.id if job is not None else None,
            cluster=cluster.name, expires=lease.expires_at)
        if self.metrics is not None:
            self.metrics.record("lease.active", len(self._live))
        return lease

    def adopt(self, lease: Lease) -> None:
        """Track an active lease built elsewhere (crash recovery
        re-attaching a surviving cluster)."""
        if not lease.active:
            raise LeaseError(f"cannot adopt {lease!r}")
        self.leases.append(lease)
        self._live[lease] = None

    def renew(self, lease: Lease, extra: Optional[float] = None) -> float:
        """Extend an active lease by ``extra`` (default: its original
        term) from *now*; returns the new expiry time."""
        if not lease.active:
            raise LeaseError(f"cannot renew {lease!r}")
        lease.expires_at = self.sim.now + (extra if extra is not None
                                           else lease.term)
        lease.renewals += 1
        eventlog_of(self.sim).append(
            "lease", lease.id, to=LeaseState.ACTIVE.value,
            frm=LeaseState.ACTIVE.value, cause="renew",
            tenant=lease.tenant, expires=lease.expires_at)
        return lease.expires_at

    def release(self, lease: Lease) -> float:
        """Holder returns the lease; terminates its cluster and returns
        the billed instance cost."""
        if not lease.active:
            raise LeaseError(f"cannot release {lease!r}")
        self._teardown(lease, LeaseState.RELEASED)
        return lease.cost

    def _teardown(self, lease: Lease, final_state: LeaseState) -> None:
        if self.on_teardown is not None:
            self.on_teardown(lease)
        fed = self.federation
        node_seconds = 0.0
        for vm in list(lease.cluster.vms):
            node_seconds += self.sim.now - lease.granted_at
            if vm.has_address and vm.address.host in fed.overlay.members:
                fed.overlay.unregister(vm)
            # A healed-away VM may no longer be tracked by any cloud.
            for cloud in fed.clouds.values():
                if vm in cloud.instances:
                    lease.cost += cloud.terminate(vm)
                    break
        lease.cluster.vms.clear()
        if lease.cluster in fed.clusters:
            fed.clusters.remove(lease.cluster)
        lease.ended_at = self.sim.now
        # Charge *before* the transition commits: the event carries the
        # charge, so replayed state must never be ahead of live state.
        if self.charge is not None and node_seconds > 0:
            self.charge(lease.tenant, node_seconds)
        from .statemachine import transition  # import cycle via enums
        transition(lease, final_state,
                   cause=("expiry" if final_state is LeaseState.EXPIRED
                          else "release"),
                   charged=node_seconds, cost=lease.cost)
        del self._live[lease]

    # -- queries ---------------------------------------------------------

    def active_leases(self) -> List[Lease]:
        """Active leases in grant order (a copy: safe to tear down
        while iterating)."""
        return list(self._live)

    def leaked(self) -> List[Lease]:
        """Leases whose capacity was not returned — ended (or expired by
        the clock) but still holding VMs a cloud tracks.  Empty list is
        the control plane's core invariant."""
        bad = []
        tracked = {vm.name for cloud in self.federation.clouds.values()
                   for vm in cloud.instances}
        for lease in self.leases:
            if lease.active and lease.remaining > 0:
                continue  # healthy, in-term lease
            if any(vm.name in tracked for vm in lease.cluster.vms):
                bad.append(lease)
        return bad

    def utilization(self) -> float:
        """Fraction of federation capacity currently under lease."""
        leased = sum(l.n_nodes for l in self.active_leases())
        total = leased + self.federation.total_capacity()
        return leased / total if total else 0.0

    def __repr__(self):
        return (f"<LeaseManager active={len(self._live)} "
                f"total={len(self.leases)}>")
