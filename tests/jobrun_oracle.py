"""Per-job reference for the fair-share scheduler's job runs.

:class:`ReferenceScheduler` runs every job's ticks the way the scheduler
did before its pure ticks shared kernel entries: the job's own runner
process wakes every ``interval`` (or less, for the last stretch), takes
``nodes * dt`` node-seconds off the job's work, re-reads the cluster
size, renews the lease when the next tick would outlast it, and sleeps
on a fresh timeout.  A world whose plane runs it must end with the same event log,
job times and kernel sequence number as the same world on the library
scheduler.  Switch a built, not yet started plane to it by assigning
``plane.scheduler.__class__``.
"""

from repro.controlplane.scheduler import FairShareScheduler


class ReferenceScheduler(FairShareScheduler):
    """The fair-share scheduler with one runner process per job tick."""

    def _run_ticks(self, run):
        cfg = self.config
        job, lease = run.job, run.lease
        cluster = lease.cluster
        while job.work_remaining > 0:
            nodes = max(1, len(cluster.vms))
            dt = min(cfg.interval, job.work_remaining / nodes)
            if lease.remaining < dt + cfg.interval:
                self.leases.renew(lease)
                job.span.event("lease-renewed", lease=lease.id)
            yield self.sim.timeout(dt)
            job.work_remaining = max(0.0, job.work_remaining - nodes * dt)

