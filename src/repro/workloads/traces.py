"""Spot-price traces.

The paper (§III-C, §IV) motivates autonomic relocation and migratable
spot instances with price variability "Amazon already introduced ...
with spot instances".  Real EC2 traces are not redistributable, so we
generate the standard synthetic equivalent: a mean-reverting (AR(1) /
Ornstein-Uhlenbeck) process around a base price with occasional demand
spikes — the regime documented in the spot-market measurement
literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..simkernel.core import Simulator


def spot_price_trace(rng: np.random.Generator, duration: float,
                     tick: float = 60.0, base: float = 0.03,
                     volatility: float = 0.15, reversion: float = 0.05,
                     spike_prob: float = 0.01, spike_magnitude: float = 4.0,
                     floor_factor: float = 0.2
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``(times, prices)`` for a spot market.

    Mean-reverting log-price plus Bernoulli spikes that multiply the
    price by ``spike_magnitude`` for one tick (the reclamation events
    the migratable-spot mechanism exists for).
    """
    if duration <= 0 or tick <= 0:
        raise ValueError("duration and tick must be positive")
    n = int(np.ceil(duration / tick)) + 1
    times = np.arange(n) * tick
    log_dev = np.empty(n)
    log_dev[0] = 0.0
    noise = rng.normal(0.0, volatility * np.sqrt(tick / 3600.0), n)
    for i in range(1, n):
        log_dev[i] = (1 - reversion) * log_dev[i - 1] + noise[i]
    prices = base * np.exp(log_dev)
    spikes = rng.random(n) < spike_prob
    prices[spikes] *= spike_magnitude
    np.maximum(prices, base * floor_factor, out=prices)
    return times, prices


@dataclass
class PricePoint:
    time: float
    price: float


class SpotPriceProcess:
    """Replays a price trace inside the simulation.

    Exposes ``current_price`` and notifies subscribers on every change —
    the spot market's reclamation monitor hangs off this.
    """

    def __init__(self, sim: Simulator, times: np.ndarray,
                 prices: np.ndarray):
        if len(times) != len(prices) or len(times) == 0:
            raise ValueError("times and prices must be equal-length, non-empty")
        self.sim = sim
        self.times = np.asarray(times, dtype=float)
        self.prices = np.asarray(prices, dtype=float)
        self.current_price = float(prices[0])
        self.history: List[PricePoint] = [PricePoint(float(times[0]),
                                                     self.current_price)]
        self._subscribers: List[Callable[[float], None]] = []
        self.process = sim.process(self._run(), name="spot-prices")

    def subscribe(self, callback: Callable[[float], None]) -> None:
        """``callback(new_price)`` fires on every price change."""
        self._subscribers.append(callback)

    def _run(self):
        for t, p in zip(self.times[1:], self.prices[1:]):
            delay = t - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            p = float(p)
            if p != self.current_price:
                self.current_price = p
                self.history.append(PricePoint(float(t), p))
                for cb in list(self._subscribers):
                    cb(p)

    def mean_price(self) -> float:
        return float(np.mean([pt.price for pt in self.history]))
