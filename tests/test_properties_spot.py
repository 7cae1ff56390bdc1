"""Property-based tests for the spot and billing indexes: after any mix
of job traffic on spot-backed leases, hand-moved prices (reclamation
episodes that survive, get rescued or get reclaimed), direct enrolment,
retirement and closing, repeated lease backing, preemptions and lease
teardowns, every index answers exactly what the full scan it replaced
would:

* ``UsageMeter.segments(vm)`` is the filter of ``_closed`` by VM;
* ``SpotMarket.live_instances()`` is ``[i for i in instances if i.alive]``
  and the reclaiming count is ``sum(i.reclaiming for i in instances)``;
* ``SpotCapacityManager.backings_of`` and ``preemptible_leases`` equal
  their scans of every backing ever made, order and identity included.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cloud import CloudError, SpotMarket
from repro.controlplane import ControlPlane, SchedulerConfig, SpotPolicy
from repro.testbeds import SiteSpec, sky_testbed

CLOUDS = ("a", "b")
#: A bargain; above the loose bid of 0.04; above the plane's bargain
#: threshold (0.09) but below its bid (0.095); above every bid.
PRICES = (0.02, 0.05, 0.092, 0.5)


class ManualPrices:
    """A spot price the test moves by hand (the market reads only
    ``current_price`` and subscribes to changes)."""

    def __init__(self, price):
        self.current_price = price
        self._subscribers = []

    def subscribe(self, callback):
        self._subscribers.append(callback)

    def set(self, price):
        if price != self.current_price:
            self.current_price = price
            for callback in list(self._subscribers):
                callback(price)


def scanned_segments(meter, vm_name):
    return [(start, stop, cost)
            for name, start, stop, cost in meter._closed if name == vm_name]


def scanned_backings_of(spot, lease):
    return [b for b in spot._backings.values()
            if b.lease is lease and b.inst.alive]


def scanned_preemptible(spot):
    seen = {}
    for b in spot._backings.values():
        if b.inst.alive and b.lease.active:
            seen[b.lease.id] = b.lease
    return [seen[k] for k in sorted(seen)]


def ids(objects):
    return [id(o) for o in objects]


class SpotIndexes(RuleBasedStateMachine):

    @initialize(rescue=st.booleans())
    def build(self, rescue):
        self.tb = sky_testbed(
            sites=[SiteSpec(name, n_hosts=3, cores_per_host=4,
                            on_demand_hourly=0.10) for name in CLOUDS],
            memory_pages=256, image_blocks=512, seed=3)
        self.sim = self.tb.sim
        self.prices = {name: ManualPrices(0.02) for name in CLOUDS}
        self.markets = {
            name: SpotMarket(self.sim, self.tb.clouds[name],
                             self.prices[name], reclaim_grace=60.0)
            for name in CLOUDS}
        self.plane = ControlPlane(
            self.sim, self.tb.federation, self.tb.image_name,
            config=SchedulerConfig(interval=5.0, lease_term=300.0,
                                   max_attempts=50),
            spot_markets=self.markets,
            spot_policy=SpotPolicy(rescue=rescue, starvation_patience=60.0),
        ).start()
        for tenant in ("alice", "bob"):
            self.plane.register_tenant(tenant)
        self.spot = self.plane.spot
        #: VMs launched outside any lease, for direct market use.
        self.loose = []

    # -- traffic and time -------------------------------------------------

    @rule(tenant=st.sampled_from(["alice", "bob"]),
          width=st.integers(1, 3), runtime=st.integers(20, 300))
    def submit(self, tenant, width, runtime):
        self.plane.submit(tenant, n_nodes=width, runtime=float(runtime))

    @rule(dt=st.integers(1, 150))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule(cloud=st.sampled_from(CLOUDS), price=st.sampled_from(PRICES))
    def move_price(self, cloud, price):
        # A retirement or preemption may follow in the same instant,
        # before the new episodes start.
        self.prices[cloud].set(price)

    @rule(cloud=st.sampled_from(CLOUDS), hold=st.integers(1, 120))
    def spike(self, cloud, hold):
        # Above every bid for ``hold`` seconds, then back: within the
        # grace window the episodes survive, past it they are rescued
        # or reclaimed.
        before = self.prices[cloud].current_price
        self.prices[cloud].set(0.5)
        self.sim.run(until=self.sim.now + hold)
        self.prices[cloud].set(before)

    # -- the market used directly -----------------------------------------

    @rule(cloud=st.sampled_from(CLOUDS))
    def launch_loose(self, cloud):
        boot = self.tb.clouds[cloud].run_instances(self.tb.image_name, 1)
        try:
            self.sim.run(until=boot)
        except CloudError:
            return  # the leases hold every core
        self.loose.extend(boot.value)

    @rule(pick=st.integers(0, 1000), bid=st.sampled_from([0.04, 0.09]))
    def enroll_loose(self, pick, bid):
        # Reclaimed loose VMs are gone; rescued ones moved cloud.
        running = [(vm, name) for vm in self.loose
                   for name, cloud in self.tb.clouds.items()
                   if vm in cloud.instances]
        if not running:
            return
        vm, name = running[pick % len(running)]
        market = self.markets[name]
        already = any(i.vm is vm and i.alive for i in market.instances)
        if already or bid < market.current_price:
            with pytest.raises(ValueError):
                market.enroll(vm, bid)
        else:
            assert market.enroll(vm, bid).vm is vm

    def _pick_live(self, cloud, pick, loose_only=False):
        live = [i for i in self.markets[cloud].instances if i.alive
                and (not loose_only or i.vm in self.loose)]
        return live[pick % len(live)] if live else None

    @rule(cloud=st.sampled_from(CLOUDS), pick=st.integers(0, 1000))
    def retire(self, cloud, pick):
        inst = self._pick_live(cloud, pick)
        if inst is not None:
            self.markets[cloud].retire(inst)
            self.markets[cloud].retire(inst)  # idempotent

    @rule(cloud=st.sampled_from(CLOUDS), pick=st.integers(0, 1000))
    def close(self, cloud, pick):
        inst = self._pick_live(cloud, pick, loose_only=True)
        # A VM rescued inside the grace window has left the cloud while
        # its instance still runs: closing ends its spot terms only.
        if inst is not None:
            self.markets[cloud].close(inst)
            self.loose.remove(inst.vm)

    # -- the control plane's spot layer ------------------------------------

    @rule(pick=st.integers(0, 1000))
    def back_again(self, pick):
        # Re-backing a running lease enrols only its members without a
        # live backing: rescued, retired or never backed ones.
        leases = [l for l in self.plane.leases.active_leases()
                  if l.job is not None]
        if leases:
            lease = leases[pick % len(leases)]
            allocation = {name: 1 for name in CLOUDS}
            self.spot.back_lease(lease, lease.job, allocation)

    @rule(pick=st.integers(0, 1000))
    def preempt(self, pick):
        leases = self.spot.preemptible_leases()
        if leases:
            self.spot.preempt(leases[pick % len(leases)])

    # -- every index equals its scan --------------------------------------

    @invariant()
    def segments_match_scan(self):
        for cloud in self.tb.clouds.values():
            meter = cloud.meter
            for name in {seg[0] for seg in meter._closed}:
                assert meter.segments(name) == scanned_segments(meter, name)
            assert meter.segments("never-metered") == []

    @invariant()
    def markets_match_scan(self):
        for market in self.markets.values():
            assert ids(market.live_instances()) == ids(
                [i for i in market.instances if i.alive])
            assert market._reclaiming == sum(
                i.reclaiming for i in market.instances)

    @invariant()
    def backings_match_scan(self):
        for lease in self.plane.leases.leases:
            assert ids(self.spot.backings_of(lease)) == ids(
                scanned_backings_of(self.spot, lease))
        assert ids(self.spot.preemptible_leases()) == ids(
            scanned_preemptible(self.spot))
        # Ended leases leave the index.
        assert set(self.spot._by_lease) <= {
            l.id for l in self.plane.leases.active_leases()}


TestSpotIndexes = SpotIndexes.TestCase
TestSpotIndexes.settings = settings(max_examples=100,
                                    stateful_step_count=50, deadline=None)


def test_vm_backed_under_a_second_lease_keeps_its_first_slot():
    """``_backings`` is keyed by VM name, so a VM re-enrolled under
    another lease keeps the slot of its first enrolment; the per-lease
    index must hand it out in that slot, ahead of later enrolments."""
    tb = sky_testbed(sites=[SiteSpec("a", n_hosts=2, cores_per_host=4)],
                     memory_pages=256, image_blocks=512, seed=3)
    market = SpotMarket(tb.sim, tb.clouds["a"], ManualPrices(0.02))
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name,
                         spot_markets={"a": market},
                         spot_policy=SpotPolicy()).start()
    plane.register_tenant("alice")
    first = plane.submit("alice", n_nodes=1, runtime=600.0)
    second = plane.submit("alice", n_nodes=1, runtime=600.0)
    tb.sim.run(until=60.0)
    spot = plane.spot
    lease1, lease2 = plane.leases.active_leases()
    assert (lease1.job, lease2.job) == (first, second)
    (b1,), (b2,) = spot.backings_of(lease1), spot.backings_of(lease2)
    market.retire(b1.inst)
    moved = b1.inst.vm
    lease2.cluster.vms.append(moved)
    try:
        assert spot.back_lease(lease2, second, {"a": 1}) == 1
        assert spot._backings[moved.name].lease is lease2
        assert ids(spot.backings_of(lease2)) == ids(
            scanned_backings_of(spot, lease2))
        assert [b.inst.vm for b in spot.backings_of(lease2)] == [
            moved, b2.inst.vm]
        assert spot.backings_of(lease1) == []
        assert ids(spot.preemptible_leases()) == ids(
            scanned_preemptible(spot))
    finally:
        lease2.cluster.vms.remove(moved)
