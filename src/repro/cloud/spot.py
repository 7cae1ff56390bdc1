"""The spot market: bid-priced instances and reclamation.

Classic spot semantics (the paper's §IV baseline): an instance runs
while the market price stays at or below its bid; when the price rises
above it, the provider reclaims the capacity and **kills** the instance,
losing its in-progress work.

The paper proposes *migratable spot instances* instead: on reclamation
the instance live-migrates to another cloud.  The market supports this
through a pluggable ``reclaim_handler``: return True to signal the VM
was rescued (moved away) rather than killed.  The handler itself —
which needs the federation and the Shrinker migrator — lives in
:mod:`repro.sky.spot_manager` to keep layering clean.

Two ways onto the market:

* :meth:`SpotMarket.request_spot` — the provider launches a fresh
  instance (the classic customer API);
* :meth:`SpotMarket.enroll` — an *already-running* instance (e.g. one
  node of a leased virtual cluster) is switched to spot pricing.  Its
  lifecycle stays with whoever provisioned it; :meth:`SpotMarket.retire`
  hands it back to on-demand terms without touching the VM.

Billing follows the market: spot instances are metered at
``min(market price, bid)`` and re-rated on every price change, so a
spot-backed hour is never billed above the bid.  Every reclamation
episode resolves exactly once — to ``"rescued"``, ``"reclaimed"``,
``"survived"`` (price receded within the grace window) or ``"closed"``
(customer terminated it mid-episode) — reported through the optional
``on_resolution`` callback; the per-instance ``reclaim_event`` fires
only for the two terminal outcomes, and only once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..hypervisor.vm import VirtualMachine
from ..simkernel.core import Simulator
from ..simkernel.events import Event
from ..workloads.traces import SpotPriceProcess
from .provider import Cloud, CloudError


class SpotState(Enum):
    RUNNING = "running"
    RECLAIMED = "reclaimed"  # killed by the provider
    RESCUED = "rescued"  # migrated away before the kill
    CLOSED = "closed"  # terminated (or retired) by the customer


@dataclass
class SpotInstance:
    """One spot-priced instance."""

    vm: VirtualMachine
    bid: float
    cloud: Cloud
    state: SpotState = SpotState.RUNNING
    launched_at: float = 0.0
    ended_at: Optional[float] = None
    #: Fires when the provider reclaims (value: "reclaimed"/"rescued").
    reclaim_event: Optional[Event] = None
    #: True while a reclamation episode is in flight (price crossed the
    #: bid, outcome not yet resolved) — further price changes above the
    #: bid must not open a second episode for the same instance.
    reclaiming: bool = field(default=False, repr=False)
    #: The cloud a grace-window rescue moved the VM to (set by the
    #: rescuer); it tracks and bills the VM from then on.
    rescued_to: Optional[Cloud] = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.state is SpotState.RUNNING


class SpotMarket:
    """Runs one cloud's spot market over a price process."""

    _ids = itertools.count()

    def __init__(self, sim: Simulator, cloud: Cloud,
                 prices: SpotPriceProcess,
                 reclaim_grace: float = 120.0):
        self.sim = sim
        self.cloud = cloud
        self.prices = prices
        #: Warning window between the price crossing and the kill
        #: (EC2 gives two minutes) — the window a migratable spot
        #: instance uses to escape.
        self.reclaim_grace = reclaim_grace
        #: Every instance ever launched or enrolled, in arrival order.
        self.instances: List[SpotInstance] = []
        #: The ``RUNNING`` subset of ``instances``, by VM, in the same
        #: order: entered at launch/enrol, dropped where the state
        #: leaves ``RUNNING``.
        self._live: Dict[VirtualMachine, SpotInstance] = {}
        #: How many ``instances`` have ``reclaiming`` set.
        self._reclaiming = 0
        #: ``handler(instance) -> process`` returning True if the VM was
        #: moved to safety during the grace window.
        self.reclaim_handler: Optional[Callable] = None
        #: ``on_resolution(instance, outcome)`` fires exactly once per
        #: reclamation episode with "rescued", "reclaimed", "survived"
        #: or "closed" — the hook economic layers build accounting on.
        self.on_resolution: Optional[Callable[[SpotInstance, str], None]] = None
        prices.subscribe(self._on_price_change)

    @property
    def current_price(self) -> float:
        return self.prices.current_price

    def live_instances(self) -> List[SpotInstance]:
        """The instances still on spot terms, in arrival order."""
        return list(self._live.values())

    # -- billing ---------------------------------------------------------

    def _spot_rate(self, inst: SpotInstance) -> float:
        """Spot billing never exceeds the bid (the customer's cap)."""
        return min(self.current_price, inst.bid)

    def _rerate(self, inst: SpotInstance) -> None:
        if inst.alive and inst.vm in self.cloud.instances:
            self.cloud.meter.rebill(inst.vm.name, self.sim.now,
                                    self._spot_rate(inst))

    # -- customer API ---------------------------------------------------

    def request_spot(self, image_name: str, bid: float,
                     memory_factory=None, **run_kwargs):
        """Launch one spot instance; yields a :class:`SpotInstance`.

        The request is rejected immediately if the bid is below the
        current price (matching provider behavior).
        """
        if bid <= 0:
            raise ValueError("bid must be positive")
        if bid < self.current_price:
            raise ValueError(
                f"bid {bid} below current price {self.current_price}"
            )
        return self.sim.process(
            self._launch(image_name, bid, memory_factory, run_kwargs),
            name="spot-request",
        )

    def _launch(self, image_name, bid, memory_factory, run_kwargs):
        vms = yield self.cloud.run_instances(
            image_name, 1, memory_factory=memory_factory, **run_kwargs
        )
        inst = SpotInstance(vm=vms[0], bid=bid, cloud=self.cloud,
                            launched_at=self.sim.now,
                            reclaim_event=self.sim.event())
        self.instances.append(inst)
        self._live[inst.vm] = inst
        self._rerate(inst)
        return inst

    def enroll(self, vm: VirtualMachine, bid: float) -> SpotInstance:
        """Switch an already-running instance of this cloud to spot
        pricing at ``bid``; returns its :class:`SpotInstance`.

        The VM's lifecycle (provisioning, lease teardown) stays with the
        caller — the market only re-prices it and subjects it to
        reclamation.  Rejected if the bid is below the current price or
        the VM is not billed by this cloud.
        """
        if bid <= 0:
            raise ValueError("bid must be positive")
        if bid < self.current_price:
            raise ValueError(
                f"bid {bid} below current price {self.current_price}"
            )
        if vm not in self.cloud.instances:
            raise CloudError(
                f"{vm.name!r} is not an instance of {self.cloud.name!r}"
            )
        if vm in self._live:
            raise ValueError(f"{vm.name!r} is already on the spot market")
        inst = SpotInstance(vm=vm, bid=bid, cloud=self.cloud,
                            launched_at=self.sim.now,
                            reclaim_event=self.sim.event())
        self.instances.append(inst)
        self._live[vm] = inst
        self._rerate(inst)
        return inst

    def retire(self, inst: SpotInstance) -> None:
        """Take an enrolled instance off spot terms without touching the
        VM: billing returns to the on-demand rate, pending reclamation
        episodes resolve as "closed"."""
        if inst.state is not SpotState.RUNNING:
            return
        inst.state = SpotState.CLOSED
        del self._live[inst.vm]
        inst.ended_at = self.sim.now
        if inst.vm in self.cloud.instances:
            self.cloud.meter.rebill(inst.vm.name, self.sim.now,
                                    self.cloud.pricing.on_demand_hourly)

    def close(self, inst: SpotInstance) -> None:
        """Customer-initiated termination.

        The VM is terminated at the cloud that tracks it: this one, or
        the one a rescue inside the grace window moved it to.
        """
        if inst.state is SpotState.RUNNING:
            inst.state = SpotState.CLOSED
            del self._live[inst.vm]
            inst.ended_at = self.sim.now
            for cloud in (self.cloud, inst.rescued_to):
                if cloud is not None and inst.vm in cloud.instances:
                    cloud.terminate(inst.vm)
                    break

    # -- reclamation -----------------------------------------------------

    def _on_price_change(self, price: float) -> None:
        for inst in list(self._live.values()):
            self._rerate(inst)
            if price > inst.bid and not inst.reclaiming:
                inst.reclaiming = True
                self._reclaiming += 1
                self.sim.process(self._reclaim(inst),
                                 name=f"reclaim-{inst.vm.name}")

    def _resolve(self, inst: SpotInstance, outcome: str) -> None:
        """Close one reclamation episode with exactly one outcome."""
        if inst.reclaiming:
            inst.reclaiming = False
            self._reclaiming -= 1
        if (outcome in ("rescued", "reclaimed")
                and inst.reclaim_event is not None
                and not inst.reclaim_event.triggered):
            inst.reclaim_event.succeed(outcome)
        if self.on_resolution is not None:
            self.on_resolution(inst, outcome)

    def _reclaim(self, inst: SpotInstance):
        # Grace window (the provider's reclamation warning): the paper's
        # migratable spot instance escapes during it.
        deadline = self.sim.now + self.reclaim_grace
        rescued = False
        # An instance closed or retired in the instant between the price
        # crossing and this start has no VM left to save.
        if self.reclaim_handler is not None and inst.alive:
            rescued = yield self.reclaim_handler(inst)
        remaining = deadline - self.sim.now
        if remaining > 0:
            yield self.sim.timeout(remaining)
        if not inst.alive:
            # Closed/retired during the grace window.
            self._resolve(inst, "closed")
            return
        # Re-check: the price may have dropped back during the grace.
        if not rescued and self.current_price <= inst.bid:
            self._resolve(inst, "survived")
            return
        inst.ended_at = self.sim.now
        if rescued:
            inst.state = SpotState.RESCUED
            del self._live[inst.vm]
            # The VM left this cloud alive: stop billing it here if the
            # migration's billing hand-off has not already — from now on
            # it is metered at the destination cloud's price.
            if inst.vm in self.cloud.instances:
                self.cloud.release(inst.vm)
            self._resolve(inst, "rescued")
        elif inst.vm not in self.cloud.instances:
            # Its owner terminated the VM during the grace window (a
            # failed VM scrubbed by its lease's health check): nothing
            # is left to kill.
            inst.state = SpotState.CLOSED
            del self._live[inst.vm]
            self._resolve(inst, "closed")
        else:
            inst.state = SpotState.RECLAIMED
            del self._live[inst.vm]
            self.cloud.terminate(inst.vm)
            self._resolve(inst, "reclaimed")
