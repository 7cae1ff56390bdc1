"""Instance pricing: on-demand rates and usage-based cost accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class InstancePricing:
    """Per-cloud price card (the paper envisions these becoming dynamic)."""

    on_demand_hourly: float = 0.10
    #: Reference spot price around which the market trace fluctuates.
    spot_base_hourly: float = 0.03


class UsageMeter:
    """Accumulates instance-hours and converts them to cost."""

    def __init__(self, pricing: InstancePricing):
        self.pricing = pricing
        #: vm -> (segment start, rate, cost of the run's closed segments)
        self._open: Dict[str, Tuple[float, float, float]] = {}
        self._closed: List[Tuple[str, float, float, float]] = []
        #: vm -> its closed segments: the very tuples of ``_closed``,
        #: in the same order, so :meth:`segments` never scans history.
        self._by_vm: Dict[str, List[Tuple[str, float, float, float]]] = {}

    def start(self, vm_name: str, at: float, hourly_rate: float = None) -> None:
        if vm_name in self._open:
            raise ValueError(f"{vm_name!r} is already metered")
        rate = (self.pricing.on_demand_hourly
                if hourly_rate is None else hourly_rate)
        self._open[vm_name] = (at, rate, 0.0)

    def stop(self, vm_name: str, at: float) -> float:
        """Close the meter; returns the cost of this instance's run
        since its latest :meth:`start`, every rate segment included."""
        try:
            start, rate, run_cost = self._open.pop(vm_name)
        except KeyError:
            raise ValueError(f"{vm_name!r} is not metered") from None
        if at < start:
            raise ValueError("stop before start")
        return run_cost + self._close(vm_name, start, at, rate)

    def rebill(self, vm_name: str, at: float, hourly_rate: float) -> None:
        """Change a running instance's rate from ``at`` onward: the
        segment billed so far is closed at the old rate and a new one
        opens at ``hourly_rate`` (spot-market re-pricing, billing
        hand-offs).  A no-op when the rate is unchanged."""
        try:
            start, rate, run_cost = self._open[vm_name]
        except KeyError:
            raise ValueError(f"{vm_name!r} is not metered") from None
        if at < start:
            raise ValueError("rebill before segment start")
        if hourly_rate == rate:
            return
        cost = self._close(vm_name, start, at, rate)
        self._open[vm_name] = (at, hourly_rate, run_cost + cost)

    def _close(self, vm_name: str, start: float, at: float,
               rate: float) -> float:
        """Record the segment ``[start, at)`` billed at ``rate``;
        returns its cost."""
        cost = (at - start) / 3600.0 * rate
        segment = (vm_name, start, at, cost)
        self._closed.append(segment)
        self._by_vm.setdefault(vm_name, []).append(segment)
        return cost

    def current_rate(self, vm_name: str) -> float:
        """The hourly rate the instance is currently billed at."""
        try:
            return self._open[vm_name][1]
        except KeyError:
            raise ValueError(f"{vm_name!r} is not metered") from None

    def segments(self, vm_name: str) -> List[Tuple[float, float, float]]:
        """Closed billing segments for ``vm_name`` as ``(start, stop,
        cost)`` tuples, in billing order."""
        return [(start, stop, cost)
                for _, start, stop, cost in self._by_vm.get(vm_name, ())]

    def cost(self, now: float) -> float:
        """Total cost including still-running instances up to ``now``."""
        # Summed afresh in closing order: a running total would not
        # match, since ``sum()`` compensates rounding on Python 3.12+.
        closed = sum(c for _, _, _, c in self._closed)
        running = sum(
            (now - start) / 3600.0 * rate
            for start, rate, _ in self._open.values()
        )
        return closed + running

    @property
    def running_count(self) -> int:
        return len(self._open)
