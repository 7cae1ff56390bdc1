"""Monitors producing adaptation triggers (paper §III-C's three causes).

The paper lists the reasons to relocate VMs at runtime:

1. changes in **resource availability** (a faster cloud frees up, the
   private cloud regains capacity);
2. changes in **resource cost** (dynamic prices, spot markets);
3. changes in **application requirements** (deadlines move).

Each monitor watches one of these and emits :class:`AdaptationTrigger`
records that the :class:`~repro.autonomic.engine.AdaptationEngine`
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..simkernel.core import Simulator


@dataclass
class AdaptationTrigger:
    """One reason to re-plan, with its context."""

    kind: str  #: "price" | "availability" | "deadline"
    time: float
    detail: dict = field(default_factory=dict)


class TriggerBus:
    """Collects triggers and notifies listeners."""

    def __init__(self):
        self.triggers: List[AdaptationTrigger] = []
        self._listeners: List[Callable[[AdaptationTrigger], None]] = []

    def subscribe(self, listener: Callable[[AdaptationTrigger], None]) -> None:
        self._listeners.append(listener)

    def emit(self, trigger: AdaptationTrigger) -> None:
        self.triggers.append(trigger)
        for listener in list(self._listeners):
            listener(trigger)


class PriceMonitor:
    """Fires when a cloud's spot price moves more than ``threshold``
    (relative) from the last fired level."""

    def __init__(self, bus: TriggerBus, sim: Simulator, cloud_name: str,
                 price_process, threshold: float = 0.25):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.bus = bus
        self.sim = sim
        self.cloud_name = cloud_name
        self.threshold = threshold
        self._reference = price_process.current_price
        price_process.subscribe(self._on_price)

    def _on_price(self, price: float) -> None:
        if self._reference <= 0:
            self._reference = price
            return
        change = abs(price - self._reference) / self._reference
        if change >= self.threshold:
            self.bus.emit(AdaptationTrigger(
                "price", self.sim.now,
                {"cloud": self.cloud_name, "price": price,
                 "reference": self._reference},
            ))
            self._reference = price


class AvailabilityMonitor:
    """Polls cloud free capacity; fires when it shifts materially."""

    def __init__(self, bus: TriggerBus, sim: Simulator, clouds,
                 interval: float = 300.0, threshold: int = 4):
        self.bus = bus
        self.sim = sim
        self.clouds = list(clouds)
        self.interval = interval
        self.threshold = threshold
        self._last = {c.name: c.capacity() for c in self.clouds}
        self.process = sim.process(self._run(), name="availability-monitor")

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            for cloud in self.clouds:
                cap = cloud.capacity()
                if abs(cap - self._last[cloud.name]) >= self.threshold:
                    self.bus.emit(AdaptationTrigger(
                        "availability", self.sim.now,
                        {"cloud": cloud.name, "capacity": cap,
                         "previous": self._last[cloud.name]},
                    ))
                    self._last[cloud.name] = cap


class DeadlineMonitor:
    """Fires when an application's deadline changes."""

    def __init__(self, bus: TriggerBus, sim: Simulator):
        self.bus = bus
        self.sim = sim
        self.deadline: Optional[float] = None

    def set_deadline(self, deadline: float) -> None:
        previous = self.deadline
        self.deadline = deadline
        if previous is not None and previous != deadline:
            self.bus.emit(AdaptationTrigger(
                "deadline", self.sim.now,
                {"deadline": deadline, "previous": previous},
            ))
