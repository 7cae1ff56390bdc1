"""The multi-tenant control plane (the user-facing layer).

Everything below this package simulates *mechanism* — federation,
migration, overlays, elasticity.  The control plane adds *policy and
tenancy* on top: users submit :class:`Job`\\ s to a :class:`JobQueue`
(admission control, per-tenant priorities and quotas), a
:class:`FairShareScheduler` matches them to clouds by price and
utilization and provisions leased virtual clusters, a
:class:`LeaseManager` guarantees expired grants return their capacity,
and a :class:`HealthMonitor` replaces failed VMs, requeues their jobs,
and live-migrates work off draining hosts.

The whole layer is *event-sourced*: every state change goes through the
typed state machines in :mod:`~repro.controlplane.statemachine` and
lands in the durable :class:`EventLog`, from which
:func:`~repro.controlplane.recovery.rebuild` reconstructs the entire
control-plane state and :func:`~repro.controlplane.recovery.recover`
restarts a crashed plane; a :class:`Reconciler` heals whatever the
crash (or a partition) left behind.

Example
-------
>>> from repro.controlplane import ControlPlane
>>> from repro.testbeds import two_cloud_testbed
>>> tb = two_cloud_testbed(memory_pages=256, image_blocks=1024)
>>> plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
>>> _ = plane.register_tenant("alice", weight=2.0)
>>> jobs = [plane.submit("alice", n_nodes=2, runtime=120.0)
...         for _ in range(3)]
>>> tb.sim.run(until=plane.all_done(jobs))  # doctest: +ELLIPSIS
<ConditionValue ...>
>>> plane.summary()["completed"]
3
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "bidding": ("BiddingStrategy", "OnDemandClip"),
    "eventlog": (
        "EventLog", "EventLogError", "NULL_LOG", "StateEvent", "eventlog_of",
        "validate_events",
    ),
    "health": ("FailureInjector", "HealEvent", "HealthMonitor"),
    "jobs": ("Job", "JobState", "Tenant"),
    "lease": ("Lease", "LeaseError", "LeaseManager", "LeaseState"),
    "plane": ("ControlPlane",),
    "queue": ("AdmissionError", "JobQueue"),
    "recovery": (
        "Drift", "RecoveredState", "Reconciler", "rebuild", "recover",
        "state_dict",
    ),
    "scheduler": ("FairShareScheduler", "SchedulerConfig"),
    "spot": ("SpotBacking", "SpotCapacityManager", "SpotPolicy"),
    "statemachine": (
        "JOB_MACHINE", "LEASE_MACHINE", "StateMachine", "TransitionError",
        "machine_for", "record", "restore_state", "transition",
    ),
})
