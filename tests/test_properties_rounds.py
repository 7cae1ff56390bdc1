"""The fair-share round's shortcuts answer what its full scans would.

A dispatch round carries one capacity view across its dispatches, skips
the EASY-backfill scan when no node is free and jobs that need more
nodes than are free, stops looking for preemption victims when no other
tenant is over the imbalance floor, and walks only the leases of
malleable jobs when adjusting them.  :class:`CheckedScheduler` checks
every one of those against the scan it replaced, at every decision of
random plane worlds (the job-run worlds, with node quotas, malleable
jobs, spot reclamation, fair-share preemption, healed failures and a
crash); the worlds must also run exactly as on the per-job reference.
"""

from hypothesis import given, settings

from repro.controlplane.jobs import JobState
from repro.controlplane.scheduler import BACKFILL_SLACK, PREEMPTION_IMBALANCE

from tests.jobrun_oracle import ReferenceScheduler
from tests.test_properties_jobruns import EVERY_PATH, run_world, worlds


def full_backfill_pick(scheduler, head):
    """The EASY-backfill scan over a fresh view, without shortcuts."""
    view = scheduler._capacity_view()
    target = head.min_nodes
    shadow = scheduler.sim.now
    pool = view[2]
    for est, n in scheduler._release_schedule():
        if pool >= target:
            break
        pool += n
        shadow = est
    if pool < target:
        shadow = float("inf")
    spare = pool - target
    for tenant in scheduler._ranked_tenants():
        for job in scheduler.queue.queued_jobs(tenant.name):
            if job is head:
                continue
            allocation = scheduler._allocate(job, view)
            if allocation is None:
                continue
            k = sum(allocation.values())
            if not scheduler._within_tenant_quota(job, k):
                continue
            est_end = scheduler.sim.now + job.work_remaining / k + BACKFILL_SLACK
            if est_end > shadow and k > spare:
                continue
            return job, allocation
    return None


def full_victims(scheduler, head):
    """Every preemption victim, found by walking the spot leases, and
    whether any other tenant's share is over the imbalance floor."""
    queue = scheduler.queue

    def share_of(name):
        t = queue.tenants[name]
        return scheduler.effective_usage(t) / t.weight

    floor = share_of(head.tenant) * PREEMPTION_IMBALANCE
    victims = [l for l in scheduler.spot.preemptible_leases()
               if l.tenant != head.tenant
               and l.job is not None and l.job.state is JobState.RUNNING
               and share_of(l.tenant) > floor]
    victims.sort(key=lambda l: (-share_of(l.tenant), -l.id))
    over = any(name != head.tenant and share_of(name) > floor
               for name in queue.tenants)
    return victims, over


class CheckedScheduler(ReferenceScheduler):
    """Checks each shortcut of the round against its full scan (on the
    per-job reference runs, so the comparison with the library
    scheduler checks the cohorts too)."""

    #: How often each shortcut was checked, summed over every world.
    checked = {"carry": 0, "backfill": 0, "backfill-empty": 0,
               "victims": 0, "victims-early": 0, "elastic": 0}

    def _carry(self, view, allocation):
        carried = super()._carry(view, allocation)
        assert carried == self._capacity_view()
        self.checked["carry"] += 1
        return carried

    def _backfill_pick(self, head, view):
        assert view == self._capacity_view()
        pick = super()._backfill_pick(head, view)
        assert pick == full_backfill_pick(self, head)
        self.checked["backfill"] += 1
        self.checked["backfill-empty"] += view[2] == 0
        return pick

    def _preempt_for(self, head, free):
        assert free == sum(self._available(c)
                           for c in self.federation.clouds.values())
        return super()._preempt_for(head, free)

    def _preemption_victims(self, head):
        victims = super()._preemption_victims(head)
        full, over = full_victims(self, head)
        assert victims == full
        self.checked["victims"] += 1
        self.checked["victims-early"] += not over
        return victims

    def _elastic_leases(self):
        leases = super()._elastic_leases()
        assert leases == [
            l for l in self.leases.active_leases()
            if l.job is not None and l.job.state is JobState.RUNNING
            and l.job.elastic]
        self.checked["elastic"] += 1
        return leases


def assert_checked_run_matches(world):
    for queue in (None, "calendar"):
        got = run_world(world, queue, CheckedScheduler)
        want = run_world(world, queue)
        del got["plane"], want["plane"]
        assert got == want


@settings(max_examples=40, deadline=None)
@given(world=worlds)
def test_round_shortcuts_match_the_full_scans(world):
    assert_checked_run_matches(world)


def test_the_fixed_world_checks_every_shortcut():
    before = dict(CheckedScheduler.checked)
    for quotas in ((None, None), (2, 4)):
        assert_checked_run_matches(dict(EVERY_PATH, quotas=quotas))
    for name, count in CheckedScheduler.checked.items():
        assert count > before[name], name
